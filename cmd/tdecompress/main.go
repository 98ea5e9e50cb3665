// Command tdecompress expands a compressed container back into a fully
// specified test-set file and optionally verifies it against the
// original. The container version and the compression method are
// auto-detected from the header: every registered codec (ea, 9c, 9chc,
// golomb, fdr, rl, selhuff) round-trips, legacy v1 block-codec files
// remain readable, and a chunked v3 stream (tcompress -stream) expands
// at O(chunk) memory, so the command works as a pipe stage. The output
// header is "width count" for a v1/v2 container and the streaming
// "width *" for a v3 stream — the same bytes tcompd answers.
//
// Usage:
//
//	tdecompress -in tests.tcmp -out expanded.txt [-verify tests.txt]
//	tdecompress -verify tests.txt < tests.tcmp > expanded.txt
//	tdecompress -fsm -in tests.tcmp -out expanded.txt
//	tdecompress -remote http://localhost:8077 < tests.tcmp > expanded.txt
//	tdecompress -remote http://localhost:8077 -async < tests.tcmp > expanded.txt
//
// -fsm decodes a v1/v2 block-codec container (ea, 9c, 9chc) through the
// hardware decoder FSM model instead of the software codec and reports
// its cycle count and area. With -remote the expansion is delegated to
// a tcompd daemon: the container streams up, the textual patterns
// stream back, and -verify still checks the result locally against the
// original. Adding -async submits the expansion as a background job
// instead and polls until it is done — the work survives a daemon
// restart mid-run.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	tcomp "repro"
	"repro/internal/bitstream"
	"repro/internal/container"
	"repro/internal/decoder"
	"repro/internal/testset"
	"repro/internal/tritvec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tdecompress: ")
	var (
		in     = flag.String("in", "", "input container file (default stdin)")
		out    = flag.String("out", "", "output test-set file (default stdout)")
		verify = flag.String("verify", "", "original test-set file to verify against")
		fsm    = flag.Bool("fsm", false, "decode through the hardware FSM model and report cycles (v1/v2 block-codec containers only)")
		remote = flag.String("remote", "", "delegate decompression to a tcompd daemon at this base URL")
		async  = flag.Bool("async", false, "with -remote: submit as a background job, poll until done, then fetch the patterns")
	)
	flag.Parse()
	if *async && *remote == "" {
		log.Fatal("-async needs -remote (it is a daemon job submission)")
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	r = bufio.NewReader(r)

	var err error
	switch {
	case *remote != "" && *fsm:
		err = errors.New("-fsm decodes locally; it cannot be combined with -remote")
	case *async:
		err = runAsync(*remote, r, *out, *verify)
	case *remote != "":
		err = runRemote(*remote, r, *out, *verify)
	case *fsm:
		err = expandFSM(r, *out, *verify, os.Stderr)
	default:
		err = expand(r, *out, *verify, os.Stderr)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// expand is the local expansion path for every container version: the
// one tcomp.NewStreamReader opens it, and expandStream writes whatever
// comes out.
func expand(r io.Reader, out, verify string, stderr io.Writer) error {
	sr, err := tcomp.NewStreamReader(r)
	if err != nil {
		return err
	}
	desc := "chunked stream"
	if n := sr.Expected(); n >= 0 {
		desc = fmt.Sprintf("%d patterns", n)
	}
	fmt.Fprintf(stderr, "container: codec %s, width %d, %s\n", sr.Codec(), sr.Width(), desc)
	return expandStream(sr.Width(), sr.Expected(), sr.Next, out, verify, stderr, func(err error) error {
		return errors.New(streamFailureLine(sr.ChunkIndex(), err))
	})
}

// expandFSM decodes a v1/v2 block-codec container through the hardware
// decoder model. Such artifacts carry the MV table and codeword list as
// their parameter blob.
func expandFSM(r io.Reader, out, verify string, stderr io.Writer) error {
	art, err := tcomp.Open(r)
	if err != nil {
		return fmt.Errorf("-fsm needs a v1/v2 block-codec container: %w", err)
	}
	fmt.Fprintf(stderr, "container: codec %s, %d patterns x %d inputs, %d payload bits\n",
		art.Codec, art.Patterns, art.Width, art.NBits)
	set, code, err := container.DecodeBlockParams(art.Params)
	if err != nil {
		return fmt.Errorf("-fsm requires a block-codec container (ea/9c/9chc): %w", err)
	}
	dec, err := decoder.New(set, code)
	if err != nil {
		return err
	}
	total := art.Width * art.Patterns
	nblocks := (total + set.K - 1) / set.K
	blocks, st, err := dec.Run(art.BitReader(), nblocks)
	if err != nil {
		return err
	}
	area := dec.Area()
	fmt.Fprintf(stderr, "fsm: %d blocks, %d input bits, %d cycles, %d states, %.0f GE\n",
		st.Blocks, st.InputBits, st.Cycles, area.States, area.GateEquivalents)
	ts, err := testset.FromFlat(tritvec.Concat(blocks...).Slice(0, total), art.Width)
	if err != nil {
		return err
	}
	return expandStream(ts.Width, ts.NumPatterns(), tcomp.PatternsOf(ts), out, verify, stderr, nil)
}

// streamFailureLine renders a chunked-stream read failure as one
// actionable line naming the failing chunk, instead of a wrapped Go
// error chain: the operator needs to know *where* the stream died and
// *what to do*, not which reader layer noticed first.
func streamFailureLine(chunk int, err error) string {
	reason := "corrupt data"
	switch {
	case errors.Is(err, container.ErrCRC):
		reason = "checksum mismatch (bit rot or a bad transfer)"
	case errors.Is(err, bitstream.ErrEOS):
		reason = "encoded payload ended early (corrupt or truncated chunk)"
	case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.EOF):
		reason = "input ended early (truncated file or transfer)"
	}
	return fmt.Sprintf("stream unreadable at chunk %d: %s; re-transfer the container or recompress the source", chunk, reason)
}

// remoteHint appends the actionable next step implied by the daemon's
// error class: the typed sentinels distinguish "fix your container"
// from "retry elsewhere" from "report a daemon bug".
func remoteHint(err error) string {
	switch {
	case errors.Is(err, tcomp.ErrTooLarge):
		return fmt.Sprintf("%v (the container exceeds the daemon's body cap; raise tcompd -max-body)", err)
	case errors.Is(err, tcomp.ErrBadRequest):
		return fmt.Sprintf("%v (the body is not a tcomp container; check the input file)", err)
	case errors.Is(err, tcomp.ErrCorruptInput):
		return fmt.Sprintf("%v (the container is corrupt or truncated; re-transfer or re-compress it)", err)
	case errors.Is(err, tcomp.ErrUnavailable):
		return fmt.Sprintf("%v (daemon draining or saturated; retry or target another instance)", err)
	case errors.Is(err, tcomp.ErrRemoteInternal):
		return fmt.Sprintf("%v (daemon bug, contained server-side; see the daemon log for the stack)", err)
	}
	return err.Error()
}

// runAsync submits the container as a daemon background job, polls
// until it is done, and fetches the textual patterns; -verify still
// runs locally while the result streams down.
func runAsync(base string, r io.Reader, out, verify string) error {
	ctx := context.Background()
	c := tcomp.NewClient(base)
	j, err := c.SubmitDecompressJob(ctx, r)
	if err != nil {
		if errors.Is(err, tcomp.ErrQueueFull) {
			return fmt.Errorf("%v (the daemon's job backlog is at capacity; retry later or raise tcompd -max-jobs)", err)
		}
		return errors.New(remoteHint(err))
	}
	fmt.Fprintf(os.Stderr, "submitted job %s (%s)\n", j.ID, base)
	if j, err = c.WaitJob(ctx, j.ID); err != nil {
		return errors.New(remoteHint(err))
	}
	if j.State != tcomp.JobDone {
		return fmt.Errorf("job %s ended %s: %s (%s)", j.ID, j.State, j.Error, j.ErrorCode)
	}
	return expandRemote(func(w io.Writer) error {
		_, err := c.JobResult(ctx, j.ID, w)
		return err
	}, out, verify)
}

// runRemote delegates expansion to a tcompd daemon, streaming the
// container up and the textual patterns back down; -verify still runs
// locally against the original.
func runRemote(base string, r io.Reader, out, verify string) error {
	c := tcomp.NewClient(base)
	return expandRemote(func(w io.Writer) error {
		return c.Decompress(context.Background(), r, w)
	}, out, verify)
}

// expandRemote runs fetch — a daemon call that writes textual patterns
// — on its own goroutine and expands the text as it arrives.
func expandRemote(fetch func(w io.Writer) error, out, verify string) error {
	errAborted := errors.New("tdecompress: remote expansion aborted")
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := fetch(pw)
		_ = pw.CloseWithError(err) // always nil
		done <- err
	}()
	// drainRemote unblocks the fetching goroutine before waiting on it —
	// waiting first would deadlock against a daemon still streaming
	// into the unread pipe — and prefers the daemon's error (the
	// actionable one) over the local parse error.
	drainRemote := func(localErr error) error {
		_ = pr.CloseWithError(errAborted) // always nil
		if derr := <-done; derr != nil && !errors.Is(derr, errAborted) {
			return errors.New(remoteHint(derr))
		}
		return localErr
	}
	sc, err := testset.NewScanner(pr)
	if err != nil {
		return drainRemote(err)
	}
	return expandStream(sc.Width(), sc.Expected(), sc.Next, out, verify, os.Stderr, drainRemote)
}

// expandStream is the one expansion loop behind the local and remote
// paths: pull patterns from next until io.EOF, verify each against the
// original when verify names a file, and write the textual output
// incrementally under a "width count" header (count < 0: "width *").
// sourceErr, when non-nil, turns a pattern-source failure into the
// operator-facing error.
func expandStream(width, count int, next func() (tritvec.Vector, error), out, verify string, stderr io.Writer, sourceErr func(error) error) error {
	var origSc *testset.Scanner
	if verify != "" {
		vf, err := os.Open(verify)
		if err != nil {
			return err
		}
		defer vf.Close()
		if origSc, err = testset.NewScanner(bufio.NewReader(vf)); err != nil {
			return err
		}
		if origSc.Width() != width {
			return fmt.Errorf("verification FAILED: original width %d, decoded width %d", origSc.Width(), width)
		}
	}

	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	pw, err := testset.NewPatternWriter(w, width, count)
	if err != nil {
		return err
	}
	n := 0
	for {
		v, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if sourceErr != nil {
				return sourceErr(err)
			}
			return err
		}
		if origSc != nil {
			o, err := origSc.Next()
			if err != nil {
				return fmt.Errorf("verification FAILED: original ended at pattern %d: %v", n, err)
			}
			if !o.Subsumes(v) {
				return fmt.Errorf("verification FAILED: pattern %d does not preserve the original's specified bits", n)
			}
		}
		if err := pw.WritePattern(v); err != nil {
			return err
		}
		n++
	}
	if err := pw.Close(); err != nil {
		return err
	}
	if origSc != nil {
		if _, err := origSc.Next(); err != io.EOF {
			return fmt.Errorf("verification FAILED: original has more than %d patterns", n)
		}
		fmt.Fprintln(stderr, "verification OK: all specified bits preserved")
	}
	fmt.Fprintf(stderr, "expanded %d patterns\n", n)
	return nil
}
