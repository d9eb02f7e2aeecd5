package data

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cosmo"
	"repro/internal/tfrecord"
)

// Source is where shard bytes come from: a local dataset directory or a
// remote cosmoflow-shardd server. Open returns the shard as a stream; the
// Loader verifies the manifest checksum over the delivered bytes, so a
// source does not need to guarantee integrity, only delivery.
type Source interface {
	// Manifest fetches and validates the dataset's manifest.
	Manifest() (*Manifest, error)
	// Open streams one shard by its manifest file name.
	Open(file string) (io.ReadCloser, error)
}

// DirSource serves shards from a local dataset directory — the paper's
// "data already staged on the burst buffer" regime.
type DirSource struct {
	Dir string
}

// Manifest loads the directory's manifest file.
func (s *DirSource) Manifest() (*Manifest, error) { return LoadManifest(s.Dir) }

// Open opens one shard file.
func (s *DirSource) Open(file string) (io.ReadCloser, error) {
	if !bareFilename(file) {
		return nil, fmt.Errorf("data: shard name %q must be a bare filename", file)
	}
	return os.Open(filepath.Join(s.Dir, file))
}

// HTTPSource pulls the manifest and shards from a cosmoflow-shardd server —
// the staging path for ranks whose node does not hold the dataset locally.
// Transient failures retry with exponential backoff, and a transfer that
// dies mid-shard resumes from its last delivered byte with a Range request
// instead of refetching the prefix.
type HTTPSource struct {
	// Base is the server root, e.g. "http://10.0.0.7:9000".
	Base string
	// Client defaults to a fresh client with no overall timeout (shards
	// are long transfers; stall detection is the transport's business).
	Client *http.Client
	// Retries is the attempt budget per operation that makes no progress
	// (default 4). Progress resets the budget: a link that delivers some
	// bytes per attempt can finish a shard on any budget.
	Retries int
	// Backoff is the initial retry delay, doubling per consecutive
	// failure (default 200ms).
	Backoff time.Duration
}

func (s *HTTPSource) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return http.DefaultClient
}

func (s *HTTPSource) retries() int {
	if s.Retries > 0 {
		return s.Retries
	}
	return 4
}

func (s *HTTPSource) backoff() time.Duration {
	if s.Backoff > 0 {
		return s.Backoff
	}
	return 200 * time.Millisecond
}

func (s *HTTPSource) url(path string) string {
	return strings.TrimSuffix(s.Base, "/") + path
}

// Manifest fetches /manifest.json, retrying transient failures.
func (s *HTTPSource) Manifest() (*Manifest, error) {
	var lastErr error
	delay := s.backoff()
	for attempt := 0; attempt < s.retries(); attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
		}
		resp, err := s.client().Get(s.url("/manifest.json"))
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("data: %s returned %s", s.url("/manifest.json"), resp.Status)
			if resp.StatusCode == http.StatusNotFound {
				return nil, lastErr // the dataset has no manifest; retrying won't grow one
			}
			continue
		}
		return ParseManifest(body)
	}
	return nil, fmt.Errorf("data: fetching manifest from %s: %w", s.Base, lastErr)
}

// Open returns a resuming stream over one shard.
func (s *HTTPSource) Open(file string) (io.ReadCloser, error) {
	if !bareFilename(file) {
		return nil, fmt.Errorf("data: shard name %q must be a bare filename", file)
	}
	return &httpShardReader{src: s, url: s.url("/shards/" + file)}, nil
}

// httpShardReader streams one shard over HTTP, transparently reconnecting
// with a Range request from the current offset when the transfer fails
// mid-stream. The loader's checksum verification backstops the resume
// arithmetic end to end.
type httpShardReader struct {
	src      *HTTPSource
	url      string
	body     io.ReadCloser
	offset   int64
	failures int // consecutive attempts with zero progress
	done     bool
}

// connect (re)establishes the transfer from the current offset.
func (r *httpShardReader) connect() error {
	req, err := http.NewRequest(http.MethodGet, r.url, nil)
	if err != nil {
		return err
	}
	if r.offset > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", r.offset))
	}
	resp, err := r.src.client().Do(req)
	if err != nil {
		return err
	}
	switch {
	case r.offset > 0 && resp.StatusCode == http.StatusPartialContent:
		r.body = resp.Body
	case resp.StatusCode == http.StatusOK:
		// Full body (either a fresh transfer, or a server that ignored the
		// Range header): discard the prefix already delivered.
		if r.offset > 0 {
			if _, err := io.CopyN(io.Discard, resp.Body, r.offset); err != nil {
				resp.Body.Close()
				return err
			}
		}
		r.body = resp.Body
	case resp.StatusCode == http.StatusRequestedRangeNotSatisfiable:
		// Offset == shard size: the remainder is empty.
		resp.Body.Close()
		r.done = true
	default:
		resp.Body.Close()
		return fmt.Errorf("data: %s returned %s", r.url, resp.Status)
	}
	return nil
}

func (r *httpShardReader) Read(p []byte) (int, error) {
	for {
		if r.done {
			return 0, io.EOF
		}
		if r.body == nil {
			if err := r.connect(); err != nil {
				if r.failures++; r.failures >= r.src.retries() {
					return 0, fmt.Errorf("data: shard transfer %s failed after %d attempts: %w", r.url, r.failures, err)
				}
				time.Sleep(r.src.backoff() << (r.failures - 1))
				continue
			}
			continue
		}
		n, err := r.body.Read(p)
		r.offset += int64(n)
		if n > 0 {
			r.failures = 0
			return n, nil
		}
		if err == io.EOF {
			r.body.Close()
			r.body = nil
			r.done = true
			return 0, io.EOF
		}
		if err != nil {
			// Mid-stream failure: drop the connection and resume by Range.
			r.body.Close()
			r.body = nil
			if r.failures++; r.failures >= r.src.retries() {
				return 0, fmt.Errorf("data: shard transfer %s died after %d attempts: %w", r.url, r.failures, err)
			}
			time.Sleep(r.src.backoff() << (r.failures - 1))
		}
	}
}

func (r *httpShardReader) Close() error {
	if r.body != nil {
		err := r.body.Close()
		r.body = nil
		return err
	}
	return nil
}

// ReadAll reads an entire split into memory through a source — for
// validation and test sets, which are small and consulted repeatedly; the
// training split should stream through a Loader instead. A missing split
// returns (nil, nil): held-out splits are optional.
func ReadAll(src Source, split string) ([]*cosmo.Sample, error) {
	m, err := src.Manifest()
	if err != nil {
		return nil, err
	}
	shards := m.Split(split)
	if len(shards) == 0 {
		return nil, nil
	}
	var out []*cosmo.Sample
	for _, sh := range shards {
		rc, err := src.Open(sh.File)
		if err != nil {
			return nil, err
		}
		sr := tfrecord.NewSampleReader(rc)
		for {
			s, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				rc.Close()
				return nil, fmt.Errorf("data: shard %s: %w", sh.File, err)
			}
			out = append(out, s)
		}
		if err := rc.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
