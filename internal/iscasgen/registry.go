// Package iscasgen carries the paper's per-circuit experimental metadata
// (Tables 1 and 2: circuit names, test-set sizes in bits, and all
// published compression rates) and generates deterministic synthetic test
// sets with matching dimensions and calibrated compressibility.
//
// Substitution note: the actual ISCAS-85/89 netlists
// and the Kajihara/Miyase and TIP test sets are third-party artifacts
// that cannot be shipped here. The compressors under study only consume a
// {0,1,X} string, so a generator that reproduces (a) the exact test-set
// dimensions, (b) the structural properties that code-based compression
// exploits (column bias, repeated care-bit templates, two-pattern pairing
// for path delay), and (c) a specified-bit density calibrated so the 9C
// baseline reproduces its published rate, exercises the identical code
// path at a comparable operating point.
package iscasgen

import "fmt"

// Kind distinguishes the two experiment families.
type Kind int

// Test-set kinds.
const (
	StuckAt Kind = iota
	PathDelay
)

// String names the kind.
func (k Kind) String() string {
	if k == PathDelay {
		return "path-delay"
	}
	return "stuck-at"
}

// Meta is one row of a paper table.
type Meta struct {
	Name  string
	Kind  Kind
	Width int // circuit inputs n (combinational part: PI + PPI)
	Bits  int // paper test-set size T·n in bits

	// Published compression rates, in percent.
	Paper9C   float64 // column '9C'
	Paper9CHC float64 // column '9C+HC'
	PaperEA   float64 // Table 1: 'EA' (K=12,L=64); Table 2: 'EA1' (K=8,L=9)
	PaperEA2  float64 // Table 1: 'EA-Best'; Table 2: 'EA2' (K=12,L=64)
}

// Patterns returns T = Bits / Width.
func (m Meta) Patterns() int { return m.Bits / m.Width }

// Validate checks the registry invariant Bits % Width == 0 (and, for path
// delay, an even pattern count so patterns pair up).
func (m Meta) Validate() error {
	if m.Width <= 0 || m.Bits <= 0 {
		return fmt.Errorf("iscasgen: %s: bad dimensions", m.Name)
	}
	if m.Bits%m.Width != 0 {
		return fmt.Errorf("iscasgen: %s: bits %d not divisible by width %d", m.Name, m.Bits, m.Width)
	}
	if m.Kind == PathDelay && m.Patterns()%2 != 0 {
		return fmt.Errorf("iscasgen: %s: odd pattern count %d for two-pattern tests", m.Name, m.Patterns())
	}
	return nil
}

// Table1 returns the stuck-at registry (paper Table 1, 39 circuits,
// sorted by increasing test-set size as in the paper).
func Table1() []Meta {
	return []Meta{
		{"s349", StuckAt, 24, 624, 23, 30, 54.2, 55.8},
		{"s344", StuckAt, 24, 624, 25, 33, 51.8, 55.8},
		{"s298", StuckAt, 17, 629, 19, 27, 45.2, 51.2},
		{"s208", StuckAt, 19, 722, 26, 32, 47.8, 50.4},
		{"s400", StuckAt, 24, 984, 29, 36, 54.4, 56.4},
		{"s382", StuckAt, 24, 1008, 29, 36, 52.0, 54.2},
		{"s386", StuckAt, 13, 1157, 0, 13, 30.4, 30.6},
		{"s444", StuckAt, 24, 1176, 40, 43, 54.4, 57.8},
		{"c6288", StuckAt, 32, 1216, 8, 19, 17.6, 20.4},
		{"s510", StuckAt, 25, 1850, 42, 45, 57.6, 57.6},
		{"c432", StuckAt, 36, 1944, 26, 36, 49.2, 50.4},
		{"s526", StuckAt, 24, 1944, 25, 29, 46.4, 46.4},
		{"s1494", StuckAt, 14, 2324, -1, 11, 23.0, 28.9},
		{"s420", StuckAt, 34, 2380, 53, 55, 54.4, 56.2},
		{"s1488", StuckAt, 14, 2436, 2, 15, 25.6, 30.0},
		{"s832", StuckAt, 23, 3404, 35, 38, 43.8, 43.8},
		{"s820", StuckAt, 23, 3496, 31, 35, 42.8, 43.4},
		{"c499", StuckAt, 41, 3854, 43, 51, 45.0, 51.6},
		{"s713", StuckAt, 54, 4104, 51, 52, 61.4, 61.8},
		{"s641", StuckAt, 54, 4212, 51, 52, 60.2, 62.2},
		{"c880", StuckAt, 60, 4680, 40, 42, 47.8, 49.8},
		{"c1908", StuckAt, 33, 4950, -2, 10, 18.4, 19.0},
		{"s953", StuckAt, 45, 5220, 51, 53, 61.6, 63.2},
		{"c1355", StuckAt, 41, 5289, 38, 45, 40.8, 44.8},
		{"s1196", StuckAt, 32, 6016, 34, 38, 46.2, 46.2},
		{"s1238", StuckAt, 32, 6240, 34, 37, 44.0, 45.8},
		{"s1423", StuckAt, 91, 8463, 59, 59, 61.0, 61.6},
		{"s838", StuckAt, 67, 8509, 67, 68, 66.2, 68.6},
		{"c3540", StuckAt, 50, 10350, 36, 39, 43.8, 44.2},
		{"c2670", StuckAt, 233, 33086, 70, 70, 70.4, 70.6},
		{"c5315", StuckAt, 178, 33108, 65, 65, 66.2, 67.0},
		{"c7552", StuckAt, 207, 60030, 63, 64, 63.2, 63.2},
		{"s5378", StuckAt, 214, 71262, 73, 73, 76.8, 76.8},
		{"s9234", StuckAt, 247, 118560, 75, 75, 76.2, 76.4},
		{"s35932", StuckAt, 1763, 133988, 71, 71, 73.8, 73.8},
		{"s15850", StuckAt, 611, 305500, 80, 80, 83.0, 83.0},
		{"s13207", StuckAt, 700, 410200, 83, 83, 85.8, 85.9},
		{"s38584", StuckAt, 1464, 1250256, 82, 82, 86.2, 86.2},
		{"s38417", StuckAt, 1664, 2068352, 84, 84, 87.0, 87.9},
	}
}

// Table2 returns the path-delay registry (paper Table 2, 29 circuits).
func Table2() []Meta {
	return []Meta{
		{"s27", PathDelay, 7, 448, -5, 9, 46.2, 51.6},
		{"s298", PathDelay, 17, 6018, 41, 44, 48.9, 54.2},
		{"s386", PathDelay, 13, 6032, 8, 19, 24.7, 26.0},
		{"s208", PathDelay, 19, 7524, 40, 43, 43.5, 46.6},
		{"s444", PathDelay, 24, 14544, 49, 52, 55.6, 55.8},
		{"s382", PathDelay, 24, 16272, 50, 55, 58.0, 59.2},
		{"s400", PathDelay, 24, 16320, 50, 55, 57.1, 58.2},
		{"s526", PathDelay, 24, 17088, 44, 45, 59.3, 60.0},
		{"s349", PathDelay, 24, 17712, 41, 44, 57.0, 61.2},
		{"s344", PathDelay, 24, 17712, 41, 44, 57.0, 60.8},
		{"s510", PathDelay, 25, 18450, 45, 47, 48.9, 52.6},
		{"s1494", PathDelay, 14, 20300, 1, 15, 19.9, 25.0},
		{"s1488", PathDelay, 14, 20664, 2, 15, 20.5, 24.6},
		{"s820", PathDelay, 23, 21850, 34, 38, 38.2, 42.4},
		{"s832", PathDelay, 23, 22448, 34, 38, 38.4, 42.4},
		{"s420", PathDelay, 34, 43588, 58, 59, 57.9, 51.2},
		{"s713", PathDelay, 54, 56376, 61, 63, 64.6, 69.0},
		{"s953", PathDelay, 45, 75510, 57, 59, 59.4, 62.8},
		{"s641", PathDelay, 54, 94500, 60, 62, 62.6, 66.2},
		{"s1196", PathDelay, 32, 95616, 40, 42, 46.9, 46.4},
		{"s1238", PathDelay, 32, 96128, 39, 41, 46.3, 45.8},
		{"s838", PathDelay, 66, 269808, 70, 70, 69.3, 64.2},
		{"s1423", PathDelay, 91, 2321592, 49, 50, 51.8, 52.8},
		{"s5378", PathDelay, 214, 3625588, 78, 78, 77.5, 81.2},
		{"s9234", PathDelay, 247, 4666324, 81, 82, 80.1, 83.2},
		{"s35932", PathDelay, 1763, 7108416, 87, 87, 86.7, 91.0},
		{"s13207", PathDelay, 700, 10234000, 85, 85, 85.9, 89.6},
		{"s15850", PathDelay, 611, 36502362, 84, 84, 82.7, 86.3},
		{"s38584", PathDelay, 1464, 81190512, 87, 87, 67.5, 90.0},
	}
}

// Find returns the registry entry with the given name and kind.
func Find(name string, kind Kind) (Meta, error) {
	var table []Meta
	if kind == PathDelay {
		table = Table2()
	} else {
		table = Table1()
	}
	for _, m := range table {
		if m.Name == name {
			return m, nil
		}
	}
	return Meta{}, fmt.Errorf("iscasgen: circuit %q not in %s registry", name, kind)
}
