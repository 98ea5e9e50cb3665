package tritvec

import (
	"math/rand"
	"testing"
)

// Differential tests pinning the word-wise bulk operations to naive
// per-bit reference implementations across randomized geometries: the
// decode hot paths are only allowed to be faster, never different.

func refFillZeros(v Vector, pos, n int) {
	for i := 0; i < n; i++ {
		v.Set(pos+i, Zero)
	}
}

func refSetWordMSB(v Vector, pos int, word uint64, k int) {
	for i := 0; i < k; i++ {
		if word>>uint(k-1-i)&1 == 1 {
			v.Set(pos+i, One)
		} else {
			v.Set(pos+i, Zero)
		}
	}
}

func refSlice(v Vector, lo, hi int) Vector {
	out := New(hi - lo)
	for i := lo; i < hi; i++ {
		out.Set(i-lo, v.Get(i))
	}
	return out
}

// refWindow reads the window a trit at a time; past the end is X.
func refWindow(v Vector, pos, width int) (care, val uint64) {
	for i := 0; i < width; i++ {
		if pos+i >= v.Len() {
			continue
		}
		switch v.Get(pos + i) {
		case Zero:
			care |= 1 << uint(i)
		case One:
			care |= 1 << uint(i)
			val |= 1 << uint(i)
		}
	}
	return care, val
}

func refCopyFrom(v, o Vector, off int) {
	for i := 0; i < o.Len(); i++ {
		v.Set(off+i, o.Get(i))
	}
}

func refSpecify(v Vector, fill Trit) Vector {
	c := v.Clone()
	for i := 0; i < c.Len(); i++ {
		if c.Get(i) == X {
			c.Set(i, fill)
		}
	}
	return c
}

func TestFillZerosMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(300)
		base := RandomTernary(n, r)
		pos := r.Intn(n)
		cnt := r.Intn(n - pos + 1)
		fast, slow := base.Clone(), base.Clone()
		fast.FillZeros(pos, cnt)
		refFillZeros(slow, pos, cnt)
		if !fast.Equal(slow) {
			t.Fatalf("n=%d pos=%d cnt=%d:\nfast %s\nslow %s", n, pos, cnt, fast, slow)
		}
	}
}

func TestSetWordMSBMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(300)
		base := RandomTernary(n, r)
		k := r.Intn(65)
		if k > n {
			k = n
		}
		pos := r.Intn(n - k + 1)
		word := r.Uint64()
		fast, slow := base.Clone(), base.Clone()
		fast.SetWordMSB(pos, word, k)
		refSetWordMSB(slow, pos, word, k)
		if !fast.Equal(slow) {
			t.Fatalf("n=%d pos=%d k=%d word=%x:\nfast %s\nslow %s", n, pos, k, word, fast, slow)
		}
	}
}

func TestSliceMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(400)
		base := RandomTernary(n, r)
		lo := r.Intn(n + 1)
		hi := lo + r.Intn(n-lo+1)
		fast := base.Slice(lo, hi)
		slow := refSlice(base, lo, hi)
		if !fast.Equal(slow) {
			t.Fatalf("n=%d [%d,%d):\nfast %s\nslow %s", n, lo, hi, fast, slow)
		}
	}
}

// TestSplitMatchesSlice cuts random vectors at widths below, at and
// above a word: every piece equals the Slice at its place, has planes
// capped at their length, and zeroing one piece leaves the others as
// they were.
func TestSplitMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for _, width := range []int{1, 7, 63, 64, 65, 130} {
		for _, count := range []int{0, 1, 5} {
			base := RandomTernary(width*count, r)
			pieces := base.Split(width)
			if len(pieces) != count {
				t.Fatalf("width %d: %d pieces, want %d", width, len(pieces), count)
			}
			for i, p := range pieces {
				if want := base.Slice(i*width, (i+1)*width); !p.Equal(want) {
					t.Fatalf("width %d piece %d: %s, want %s", width, i, p, want)
				}
				if c, v := p.Words(); cap(c) != len(c) || cap(v) != len(v) {
					t.Fatalf("width %d piece %d: planes of %d/%d words have capacity %d/%d",
						width, i, len(c), len(v), cap(c), cap(v))
				}
			}
			for i := range pieces {
				pieces[i].FillZeros(0, width)
				for j, p := range pieces {
					if want := base.Slice(j*width, (j+1)*width); j != i && !p.Equal(want) {
						t.Fatalf("width %d: zeroing piece %d changed piece %d", width, i, j)
					}
				}
				pieces[i].CopyFrom(base.Slice(i*width, (i+1)*width), 0)
			}
		}
	}
}

// TestWindowMatchesReference reads every window of widths 0 to 64 at
// every offset of vectors shorter than, equal to and longer than a
// word, across word boundaries and past the end.
func TestWindowMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 13, 63, 64, 65, 127, 128, 130, 200} {
		v := RandomTernary(n, r)
		for pos := 0; pos <= n+65; pos++ {
			for width := 0; width <= 64; width++ {
				care, val := v.Window(pos, width)
				wantCare, wantVal := refWindow(v, pos, width)
				if care != wantCare || val != wantVal {
					t.Fatalf("n=%d Window(%d,%d) = %#x/%#x, want %#x/%#x",
						n, pos, width, care, val, wantCare, wantVal)
				}
			}
		}
	}
}

func TestCopyFromMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(400)
		base := RandomTernary(n, r)
		m := r.Intn(n + 1)
		src := RandomTernary(m, r)
		off := r.Intn(n - m + 1)
		fast, slow := base.Clone(), base.Clone()
		fast.CopyFrom(src, off)
		refCopyFrom(slow, src, off)
		if !fast.Equal(slow) {
			t.Fatalf("n=%d m=%d off=%d:\nfast %s\nslow %s", n, m, off, fast, slow)
		}
	}
}

func TestSpecifyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		base := RandomTernary(n, r)
		for _, fill := range []Trit{Zero, One} {
			fast := base.Specify(fill)
			slow := refSpecify(base, fill)
			if !fast.Equal(slow) {
				t.Fatalf("n=%d fill=%v:\nfast %s\nslow %s", n, fill, fast, slow)
			}
		}
	}
}

func TestFillZerosBounds(t *testing.T) {
	v := New(10)
	v.FillZeros(3, 0) // no-op
	for _, bad := range [][2]int{{-1, 2}, {8, 3}, {0, 11}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("FillZeros(%d,%d) must panic", bad[0], bad[1])
				}
			}()
			v.FillZeros(bad[0], bad[1])
		}()
	}
}
