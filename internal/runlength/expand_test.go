package runlength

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bitstream"
)

// codeword is one step's answer in a scripted decode.
type codeword struct {
	run    int
	closed bool
	err    error
}

// script returns a Step that hands out words in order and counts the
// calls; past the script it reports end of stream at a boundary.
func script(words ...codeword) (Step, *int) {
	calls := 0
	return func(*bitstream.Reader) (int, bool, error) {
		calls++
		if calls > len(words) {
			return 0, false, bitstream.ErrEOS
		}
		w := words[calls-1]
		return w.run, w.closed, w.err
	}, &calls
}

func TestExpand(t *testing.T) {
	errHostile := errors.New("hostile codeword")
	for _, tc := range []struct {
		name      string
		totalBits int
		words     []codeword
		want      string // "" with wantErr set
		wantErr   error
		calls     int
	}{
		{"closed runs", 7, []codeword{{2, true, nil}, {0, true, nil}, {1, true, nil}}, "0011010", nil, 4},
		{"a run longer than what is left is cut at totalBits", 5, []codeword{{1, true, nil}, {100, true, nil}}, "01000", nil, 2},
		{"a closed run ending at totalBits writes no 1", 3, []codeword{{3, true, nil}}, "000", nil, 1},
		{"an unterminated run writes no 1", 6, []codeword{{3, false, nil}, {2, true, nil}}, "000001", nil, 2},
		{"end of stream at a boundary leaves implied zeros", 6, []codeword{{0, true, nil}}, "100000", nil, 2},
		{"end of stream before any codeword", 4, nil, "0000", nil, 1},
		{"totalBits of 0 reads nothing", 0, []codeword{{5, true, nil}}, "", nil, 0},
		{"end of stream inside a codeword fails", 6, []codeword{{1, true, nil}, {0, false, fmt.Errorf("cut: %w", bitstream.ErrEOS)}}, "", bitstream.ErrEOS, 2},
		{"a step's own error passes through", 6, []codeword{{0, false, errHostile}}, "", errHostile, 1},
		{"negative totalBits fails", -1, []codeword{{1, true, nil}}, "", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			step, calls := script(tc.words...)
			got, err := Expand(bitstream.NewReader(nil, 0), tc.totalBits, step)
			if *calls != tc.calls {
				t.Errorf("step called %d times, want %d", *calls, tc.calls)
			}
			if tc.totalBits < 0 || tc.wantErr != nil {
				if err == nil || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
					t.Fatalf("got %v, want an error wrapping %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != tc.want {
				t.Fatalf("expanded %q, want %q", got.String(), tc.want)
			}
			if got.CountX() != 0 {
				t.Fatalf("expanded %q is not fully specified", got.String())
			}
		})
	}
}
