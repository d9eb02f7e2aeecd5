//go:build e2e

// Package e2e drives the commands under cmd/ as built binaries, end to
// end: daemons on free loopback ports, multi-process training worlds,
// and the operator tools against them. TestMain builds every command
// once into a temporary directory; each test starts its own daemons with
// -addr 127.0.0.1:0, reads the bound address from the daemon's log, and
// polls readiness under the test's deadline. Every child is stopped and
// waited for in t.Cleanup.
//
// The suite sits behind the e2e build tag, so `go test ./...` does not
// run it:
//
//	go test -tags e2e -count=1 ./e2e
package e2e

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve/client"
)

// binDir holds the commands TestMain built.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cosmoflow-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
	build.Dir = ".."
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building the commands:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// testContext bounds one test: every poll and every one-shot command runs
// under it.
func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// logBuffer collects a child's output.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is a started child: done closes once it has exited and been
// waited for, and err then holds Wait's result.
type proc struct {
	cmd  *exec.Cmd
	out  *logBuffer
	done chan struct{}
	err  error
}

// start launches a command from binDir with stdout and stderr captured.
// Cleanup stops it (see stop) and prints its output if the test failed.
func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{
		cmd:  exec.Command(filepath.Join(binDir, name), args...),
		out:  &logBuffer{},
		done: make(chan struct{}),
	}
	p.cmd.Stdout, p.cmd.Stderr = p.out, p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.stop()
		if t.Failed() {
			t.Logf("%s %s:\n%s", name, strings.Join(args, " "), p.out)
		}
	})
	return p
}

// stop sends SIGTERM, the daemons' graceful drain, and waits; a child
// still running after 10 s is killed. It returns Wait's result.
func (p *proc) stop() error {
	select {
	case <-p.done:
		return p.err
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM) // fails only if the child has exited; done then closes
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	return p.err
}

// listenLine is the daemons' startup line naming the bound address.
var listenLine = regexp.MustCompile(`(?:listening on|serving \S+ on) (?:http://)?(127\.0\.0\.1:[0-9]+)`)

// startDaemon starts a daemon on a free loopback port and returns it with
// its base URL, read from the daemon's log. The daemons listen before
// they log the address, so a request sent after this returns is queued
// on the socket, never refused; cosmoflow-shardd checks its manifest
// before listening and is ready then.
func startDaemon(t *testing.T, ctx context.Context, name string, args ...string) (*proc, string) {
	t.Helper()
	p := start(t, name, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	var m []string
	poll(t, ctx, name+" never logged its address", func() bool {
		select {
		case <-p.done:
			t.Fatalf("%s exited before listening: %v", name, p.err)
		default:
		}
		m = listenLine.FindStringSubmatch(p.out.String())
		return m != nil
	})
	return p, "http://" + m[1]
}

// poll calls cond every 50 ms until it holds, failing the test at ctx's
// deadline.
func poll(t *testing.T, ctx context.Context, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for !cond() {
		select {
		case <-ctx.Done():
			t.Fatalf("%s: %v", what, ctx.Err())
		case <-tick.C:
		}
	}
}

// waitHealthy polls GET /healthz through the typed client until a serve
// or gateway daemon reports every model ready.
func waitHealthy(t *testing.T, ctx context.Context, base string) {
	t.Helper()
	cl := client.New(base)
	poll(t, ctx, base+" never became ready", func() bool {
		hr, err := cl.Health(ctx)
		return err == nil && hr.Status == "ok"
	})
}

// run runs a command from binDir to completion and returns its stdout; a
// non-zero exit fails the test.
func run(t *testing.T, ctx context.Context, name string, args ...string) string {
	t.Helper()
	var stderr bytes.Buffer
	cmd := command(ctx, name, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\nstdout:\n%s\nstderr:\n%s", name, strings.Join(args, " "), err, out, &stderr)
	}
	return string(out)
}

// runCombined runs a command from binDir to completion and returns its
// stdout and stderr interleaved, with the exit error.
func runCombined(ctx context.Context, name string, args ...string) (string, error) {
	out, err := command(ctx, name, args...).CombinedOutput()
	return string(out), err
}

// command builds a one-shot command from binDir that is killed at ctx's
// deadline; WaitDelay keeps Wait from hanging on output pipes a killed
// launcher's ranks still hold.
func command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, filepath.Join(binDir, name), args...)
	cmd.WaitDelay = 10 * time.Second
	return cmd
}

// do sends one raw HTTP request, header given as key, value pairs, and
// returns the response with its body read.
func do(t *testing.T, ctx context.Context, method, url string, body []byte, header ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	return resp, data
}

// expect sends one raw HTTP request and fails the test unless it answers
// want; it returns the body.
func expect(t *testing.T, ctx context.Context, want int, method, url string, body []byte, header ...string) []byte {
	t.Helper()
	resp, data := do(t, ctx, method, url, body, header...)
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d\n%s", method, url, resp.StatusCode, want, data)
	}
	return data
}

// apiStatus returns the HTTP status of a typed-client error, 0 if err is
// not an *client.APIError.
func apiStatus(err error) int {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode
	}
	return 0
}

// lossRow is a training log's epoch row: an epoch number opening the line.
var lossRow = regexp.MustCompile(`^ *[0-9]+ `)

// losses returns a training log's epoch rows as "epoch trainloss valloss".
func losses(log string) []string {
	var rows []string
	for _, line := range strings.Split(log, "\n") {
		if f := strings.Fields(line); lossRow.MatchString(line) && len(f) >= 3 {
			rows = append(rows, strings.Join(f[:3], " "))
		}
	}
	return rows
}

// fromEpoch keeps the rows of epoch e onwards.
func fromEpoch(rows []string, e int) []string {
	var out []string
	for _, r := range rows {
		if n, _ := strconv.Atoi(strings.Fields(r)[0]); n >= e {
			out = append(out, r)
		}
	}
	return out
}

// sameRows fails the test unless got equals want row for row.
func sameRows(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: the reference run printed no epoch rows", what)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s: losses differ\nwant:\n%s\ngot:\n%s", what, strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
}
