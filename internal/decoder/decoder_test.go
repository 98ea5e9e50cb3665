package decoder

import (
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/blockcode"
	"repro/internal/ninec"
	"repro/internal/testset"
)

func compressed(t *testing.T, seed int64) (*blockcode.Result, *testset.TestSet) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ts := testset.Random(16, 40, 0.3, r)
	res, err := ninec.CompressHC(ts, 8)
	if err != nil {
		t.Fatal(err)
	}
	return res, ts
}

// TestFSMMatchesSoftwareDecode checks that the FSM model returns what
// blockcode.Decode returns, keeps every specified bit, consumes exactly
// the stream and reports one block per K bits.
func TestFSMMatchesSoftwareDecode(t *testing.T) {
	res, ts := compressed(t, 1)
	fsm, err := New(res.Set, res.Code)
	if err != nil {
		t.Fatal(err)
	}
	bits := ts.TotalBits()
	hw, st, err := fsm.Run(bitstream.FromWriter(res.Stream), bits)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := blockcode.Decode(bitstream.FromWriter(res.Stream), res.Set, res.Code, bits)
	if err != nil {
		t.Fatal(err)
	}
	if !hw.Equal(sw) {
		t.Fatalf("hardware %s vs software %s", hw, sw)
	}
	if err := blockcode.Verify(ts.Flatten(), hw); err != nil {
		t.Fatal(err)
	}
	if st.InputBits != res.CompressedBits {
		t.Fatalf("consumed %d bits, stream has %d", st.InputBits, res.CompressedBits)
	}
	if blocks := blockcode.Partition(ts, res.Set.K).Len(); st.Blocks != blocks {
		t.Fatalf("FSM reports %d blocks, want %d", st.Blocks, blocks)
	}
}

func TestCycleModel(t *testing.T) {
	res, ts := compressed(t, 2)
	fsm, err := New(res.Set, res.Code)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := fsm.Run(bitstream.FromWriter(res.Stream), ts.TotalBits())
	if err != nil {
		t.Fatal(err)
	}
	want := st.InputBits + blockcode.Partition(ts, 8).Len()*res.Set.K
	if st.Cycles != want {
		t.Fatalf("cycles=%d want %d", st.Cycles, want)
	}
}

func TestAreaModel(t *testing.T) {
	res, _ := compressed(t, 3)
	fsm, err := New(res.Set, res.Code)
	if err != nil {
		t.Fatal(err)
	}
	a := fsm.Area()
	if a.States <= 0 || a.MVTableBits <= 0 || a.GateEquivalents <= 0 {
		t.Fatalf("degenerate area %+v", a)
	}
	// More MVs => more table bits.
	if a.MVTableBits != res.Code.NumUsed()*res.Set.K*2 {
		t.Fatalf("table bits %d", a.MVTableBits)
	}
}

func TestNewValidation(t *testing.T) {
	res, _ := compressed(t, 4)
	short := &blockcode.MVSet{K: res.Set.K, MVs: res.Set.MVs[:3]}
	if _, err := New(short, res.Code); err == nil {
		t.Fatal("symbol/MV count mismatch accepted")
	}
}

func TestRunErrorOnTruncatedStream(t *testing.T) {
	res, ts := compressed(t, 5)
	fsm, err := New(res.Set, res.Code)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the stream to half.
	buf := res.Stream.Bytes()
	r := bitstream.NewReader(buf, res.Stream.Len()/2)
	if _, _, err := fsm.Run(r, ts.TotalBits()); err == nil {
		t.Fatal("truncated stream decoded without error")
	}
}
