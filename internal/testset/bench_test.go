package testset_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/iscasgen"
	"repro/internal/testset"
)

// benchText returns the s5378 stuck-at table set and its textual form.
func benchText(b *testing.B) (*testset.TestSet, []byte) {
	m, err := iscasgen.Find("s5378", iscasgen.StuckAt)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := iscasgen.Generate(m, iscasgen.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := ts.Write(&text); err != nil {
		b.Fatal(err)
	}
	return ts, text.Bytes()
}

// BenchmarkTextParse reads the textual format: the parse half of every
// set that reaches the daemon or a CLI.
func BenchmarkTextParse(b *testing.B) {
	_, text := benchText(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testset.Read(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTextFormat writes the textual format: the format half.
func BenchmarkTextFormat(b *testing.B) {
	ts, text := benchText(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ts.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBinary returns the same set and its binary form.
func benchBinary(b *testing.B) (*testset.TestSet, []byte) {
	ts, _ := benchText(b)
	var bin bytes.Buffer
	if err := ts.WriteBinary(&bin); err != nil {
		b.Fatal(err)
	}
	return ts, bin.Bytes()
}

// BenchmarkBinaryParse reads the same set in the binary format.
func BenchmarkBinaryParse(b *testing.B) {
	_, bin := benchBinary(b)
	b.SetBytes(int64(len(bin)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testset.Read(bytes.NewReader(bin)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinaryFormat writes the binary format.
func BenchmarkBinaryFormat(b *testing.B) {
	ts, bin := benchBinary(b)
	b.SetBytes(int64(len(bin)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ts.WriteBinary(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
