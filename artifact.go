package tcomp

import (
	"fmt"
	"io"
	"os"

	"repro/internal/bitstream"
	"repro/internal/container"
)

// Artifact is the self-describing product of a Compress call: the codec
// name, the test-set dimensions, the codec's serialized parameters
// (e.g. the MV table and codeword list for block codecs, M for Golomb)
// and the encoded payload. It is the in-memory twin of the on-disk
// universal container (format v2) — Write and Open convert between the
// two losslessly.
type Artifact struct {
	// Codec is the registry name of the scheme that produced the
	// artifact; Decompress dispatches on it.
	Codec string
	// Width and Patterns are the original test-set dimensions.
	Width, Patterns int
	// OriginalBits and CompressedBits give the paper-style size
	// accounting (OriginalBits = Width·Patterns).
	OriginalBits, CompressedBits int
	// Params is the codec-specific parameter blob, exactly as stored in
	// the container header.
	Params []byte
	// Payload holds the encoded bitstream (NBits bits, byte-padded).
	Payload []byte
	NBits   int
	// Extra optionally carries the codec's rich in-memory result (e.g.
	// *EAResult with per-run statistics). It is NOT serialized: an
	// artifact read back via Open has Extra == nil.
	Extra any
}

// BitReader returns a bitstream reader positioned at the start of the
// payload — the one input type every decoder, software or the hardware
// FSM model, consumes. Every registered codec decompresses through it,
// whether the artifact was built whole or from one v3 chunk.
func (a *Artifact) BitReader() *bitstream.Reader {
	return bitstream.NewReader(a.Payload, a.NBits)
}

// RatePercent returns the paper-style compression rate,
// 100·(orig−comp)/orig.
func (a *Artifact) RatePercent() float64 {
	if a.OriginalBits == 0 {
		return 0
	}
	return 100 * float64(a.OriginalBits-a.CompressedBits) / float64(a.OriginalBits)
}

// Write serializes the artifact as a universal container (format v2):
// any registered codec's output round-trips, not just the block codecs
// the legacy v1 format could represent.
func Write(w io.Writer, a *Artifact) error {
	if a == nil {
		return fmt.Errorf("tcomp: nil artifact")
	}
	return container.WriteV2(w, &container.Container{
		Version:  container.Version2,
		Codec:    a.Codec,
		Width:    a.Width,
		Patterns: a.Patterns,
		Params:   a.Params,
		Payload:  a.Payload,
		NBits:    a.NBits,
	})
}

// Open parses a container of any supported version (v2, or legacy v1
// block-codec files) into an Artifact. The codec is auto-detected from
// the header; pass the result to Decompress.
func Open(r io.Reader) (*Artifact, error) {
	c, err := container.ReadAny(r)
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Codec:          c.Codec,
		Width:          c.Width,
		Patterns:       c.Patterns,
		OriginalBits:   c.TotalBits(),
		CompressedBits: c.NBits,
		Params:         c.Params,
		Payload:        c.Payload,
		NBits:          c.NBits,
	}, nil
}

// OpenFile opens and parses a container file.
func OpenFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Open(f)
}

// Decompress reconstructs the fully specified test set from an artifact
// by dispatching to the codec named in its header. The decoded patterns
// preserve every specified bit of the original (don't-cares get concrete
// values).
func Decompress(a *Artifact) (*TestSet, error) {
	if a == nil {
		return nil, fmt.Errorf("tcomp: nil artifact")
	}
	// Containers validate dimensions on read, but an Artifact can also be
	// constructed directly; re-checking here keeps every decode path —
	// including hand-built artifacts — allocation-bounded and panic-free.
	if err := container.ValidateDims(a.Width, a.Patterns); err != nil {
		return nil, err
	}
	codec, err := Lookup(a.Codec)
	if err != nil {
		return nil, err
	}
	return codec.Decompress(a)
}
