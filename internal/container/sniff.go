package container

import (
	"bytes"
	"fmt"
	"io"
)

// prologueLen is the length of the magic + version prologue shared by
// every container version.
const prologueLen = 5

// Sniff probes the container version of the stream on r by reading the
// five-byte magic + version prologue. It returns the detected version
// (1, 2, or Version3) and a reader that replays the full stream —
// prologue included — so the caller can hand rest to whichever parser
// the version calls for (ReadAny for v1/v2, NewChunkReader for v3)
// without seeking. This is the one detection path: both parsers and
// tcomp.NewStreamReader, the reader every other caller goes through,
// use it, so there is no second copy of the magic/version peek to
// drift.
//
// On error (short input, bad magic, unknown version) rest still replays
// whatever was consumed, so the caller can report or re-route the raw
// bytes.
func Sniff(r io.Reader) (version int, rest io.Reader, err error) {
	buf := make([]byte, prologueLen)
	n, err := io.ReadFull(r, buf)
	rest = io.MultiReader(bytes.NewReader(buf[:n]), r)
	if err != nil {
		return 0, rest, fmt.Errorf("container: truncated prologue (%d of %d bytes): %w", n, prologueLen, err)
	}
	if [4]byte(buf[:4]) != magic {
		return 0, rest, fmt.Errorf("container: bad magic %q", buf[:4])
	}
	switch v := int(buf[4]); v {
	case 1, Version2, Version3:
		return v, rest, nil
	default:
		return 0, rest, fmt.Errorf("container: unsupported version %d", buf[4])
	}
}

// discardPrologue consumes the five prologue bytes a successful Sniff
// left replayable on rest, positioning it at the version-specific body.
func discardPrologue(rest io.Reader) error {
	_, err := io.CopyN(io.Discard, rest, prologueLen)
	return err
}
