package train

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/nn"
	"repro/internal/optim"
)

// Training-state checkpoints extend the nn parameter checkpoint with an
// optimizer/progress section so a resumed run continues bit-identically —
// same Adam moments, same schedule step, same next epoch — instead of
// cold-starting the accumulators.
//
// Layout: the nn checkpoint (magic "CFCK", self-checksummed) followed by
//
//	magic "CFOS" | uint32 version | uint32 stepCount | uint32 epochsDone
//	uint32 nbufs | per buf: uint32 len | float32 data...
//	uint32 CRC32-C of the section
//
// nn.LoadCheckpointFile reads exactly the parameter section and ignores
// what follows, so a training-state file doubles as a plain model
// checkpoint (the serving daemon loads it unchanged), and a plain
// parameter checkpoint loads here with a nil optimizer section (params
// resume, optimizer cold-starts — the pre-state-section behavior).
const (
	trainStateMagic   = 0x43464F53 // "CFOS"
	trainStateVersion = 1
)

// TrainState is the decoded optimizer/progress section of a checkpoint.
type TrainState struct {
	EpochsDone int         // completed epochs; training resumes at this epoch index
	StepCount  int         // completed optimizer updates
	Bufs       [][]float32 // optimizer state in optim.AdamLARC.StateBuffers order
}

// SaveTrainState atomically writes net's parameters plus opt's state to
// path (tmp file + rename), so a crash mid-write never corrupts the
// checkpoint a restarted world will resume from.
func SaveTrainState(path string, net *nn.Network, opt *optim.AdamLARC, epochsDone int) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = net.SaveCheckpoint(tmp); err != nil {
		return err
	}
	if err = writeStateSection(tmp, opt.StepCount(), epochsDone, opt.StateBuffers()); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func writeStateSection(w io.Writer, step, epochsDone int, bufs [][]float32) error {
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	writeU32 := func(v uint32) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		_, err := bw.Write(b[:])
		return err
	}
	for _, v := range []uint32{trainStateMagic, trainStateVersion, uint32(step), uint32(epochsDone), uint32(len(bufs))} {
		if err := writeU32(v); err != nil {
			return err
		}
	}
	for _, buf := range bufs {
		if err := writeU32(uint32(len(buf))); err != nil {
			return err
		}
		for _, f := range buf {
			if err := writeU32(math.Float32bits(f)); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], crc.Sum32())
	_, err := w.Write(b[:])
	return err
}

// LoadTrainState restores net's parameters from the checkpoint at path and
// decodes the optimizer section if present. A plain parameter checkpoint
// (no section) returns (nil, nil): the caller resumes parameters only.
// nn.LoadCheckpoint buffers its reads, so the optimizer section is located
// by nn's own size arithmetic (CheckpointSize), not the reader's position.
func LoadTrainState(path string, net *nn.Network) (*TrainState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	plen := net.CheckpointSize()
	if len(data) < plen {
		return nil, fmt.Errorf("train: checkpoint %s is %d bytes, parameter section needs %d",
			path, len(data), plen)
	}
	if err := net.LoadCheckpoint(bytes.NewReader(data[:plen])); err != nil {
		return nil, err
	}
	if len(data) == plen {
		return nil, nil // params-only checkpoint
	}
	return readStateSection(bytes.NewReader(data[plen:]), len(data)-plen)
}

// readStateSection decodes a section of at most sectionLen bytes; length
// fields are bounded by it before any allocation, so a corrupt length
// (which the trailing CRC would only catch after decoding) fails cleanly
// instead of attempting a multi-GB allocation.
func readStateSection(r io.Reader, sectionLen int) (*TrainState, error) {
	// Hash exactly the bytes consumed (the nn.LoadCheckpoint pattern), so
	// the checksum stays valid if another section is ever appended after
	// this one.
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	br := bufio.NewReader(r)
	readU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		crc.Write(b[:])
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	magic, err := readU32()
	if err == io.EOF {
		return nil, nil // params-only checkpoint
	}
	if err != nil {
		return nil, fmt.Errorf("train: reading state section magic: %w", err)
	}
	if magic != trainStateMagic {
		return nil, fmt.Errorf("train: bad state section magic %#x", magic)
	}
	version, err := readU32()
	if err != nil {
		return nil, err
	}
	if version != trainStateVersion {
		return nil, fmt.Errorf("train: unsupported state section version %d", version)
	}
	step, err := readU32()
	if err != nil {
		return nil, err
	}
	epochsDone, err := readU32()
	if err != nil {
		return nil, err
	}
	nbufs, err := readU32()
	if err != nil {
		return nil, err
	}
	if int64(nbufs) > int64(sectionLen)/4 {
		return nil, fmt.Errorf("train: state section claims %d buffers in %d bytes", nbufs, sectionLen)
	}
	st := &TrainState{StepCount: int(step), EpochsDone: int(epochsDone), Bufs: make([][]float32, nbufs)}
	for i := range st.Bufs {
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if int64(n) > int64(sectionLen)/4 {
			return nil, fmt.Errorf("train: state buffer %d claims %d elements in a %d-byte section", i, n, sectionLen)
		}
		buf := make([]float32, n)
		for j := range buf {
			bits, err := readU32()
			if err != nil {
				return nil, err
			}
			buf[j] = math.Float32frombits(bits)
		}
		st.Bufs[i] = buf
	}
	var b [4]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return nil, fmt.Errorf("train: reading state section checksum: %w", err)
	}
	if binary.LittleEndian.Uint32(b[:]) != crc.Sum32() {
		return nil, fmt.Errorf("train: state section checksum mismatch")
	}
	return st, nil
}

// Apply copies the decoded state into opt, whose StateBuffers layout must
// match the saving optimizer's (the same network topology).
func (st *TrainState) Apply(opt *optim.AdamLARC) error {
	bufs := opt.StateBuffers()
	if len(bufs) != len(st.Bufs) {
		return fmt.Errorf("train: checkpoint has %d optimizer state buffers, optimizer has %d",
			len(st.Bufs), len(bufs))
	}
	for i, buf := range bufs {
		if len(buf) != len(st.Bufs[i]) {
			return fmt.Errorf("train: optimizer state buffer %d length %d, checkpoint has %d",
				i, len(buf), len(st.Bufs[i]))
		}
		copy(buf, st.Bufs[i])
	}
	opt.SetStepCount(st.StepCount)
	return nil
}
