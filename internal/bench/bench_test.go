package bench

import (
	"slices"
	"testing"

	"deesim/internal/cpu"
	"deesim/internal/trace"
)

func TestCompressMatchesReference(t *testing.T) {
	p, err := BuildCompress(1)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(p)
	if err := c.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResultWords(p, c.Mem, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantCk, wantCnt := CompressReference(CompressInput(1))
	if got[0] != wantCk || got[1] != wantCnt {
		t.Errorf("compress: got (ck=%#x cnt=%d), want (ck=%#x cnt=%d)", got[0], got[1], wantCk, wantCnt)
	}
	t.Logf("compress: %d dynamic instructions, %d codes", c.Steps(), got[1])
}

func TestEqntottMatchesReference(t *testing.T) {
	p, err := BuildEqntott(1)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(p)
	if err := c.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResultWords(p, c.Mem, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantCk, wantN, wantHeavy := EqntottReference(EqntottInput(1), eqntottSortN)
	if got[0] != wantCk || got[1] != wantN || got[2] != wantHeavy {
		t.Errorf("eqntott: got (ck=%#x n=%d heavy=%d), want (ck=%#x n=%d heavy=%d)",
			got[0], got[1], got[2], wantCk, wantN, wantHeavy)
	}
	t.Logf("eqntott: %d dynamic instructions, heavy=%d", c.Steps(), got[2])
}

func TestEspressoMatchesReference(t *testing.T) {
	for _, seed := range []uint32{0xbca, 0xc25, 0x71, 0x71a7} {
		p, err := BuildEspresso(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := cpu.New(p)
		if err := c.Run(50_000_000); err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		got, err := ReadResultWords(p, c.Mem, 3)
		if err != nil {
			t.Fatal(err)
		}
		cov, inter, ck := EspressoReference(EspressoInput(seed, 1))
		if got[0] != cov || got[1] != inter || got[2] != ck {
			t.Errorf("espresso %#x: got (%d,%d,%#x), want (%d,%d,%#x)",
				seed, got[0], got[1], got[2], cov, inter, ck)
		}
		t.Logf("espresso %#x: %d dynamic instructions, covered=%d intersect=%d", seed, c.Steps(), got[0], got[1])
	}
}

func TestCC1MatchesReference(t *testing.T) {
	p, err := BuildCC1(1)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(p)
	if err := c.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResultWords(p, c.Mem, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantCk, wantStmts := CC1Reference(CC1Input(1))
	if got[0] != wantCk || got[1] != wantStmts {
		t.Errorf("cc1: got (ck=%#x stmts=%d), want (ck=%#x stmts=%d)", got[0], got[1], wantCk, wantStmts)
	}
	if wantStmts < 100 {
		t.Errorf("cc1 input suspiciously small: %d statements", wantStmts)
	}
	t.Logf("cc1: %d dynamic instructions, %d statements", c.Steps(), got[1])
}

func TestXlispMatchesReference(t *testing.T) {
	code, err := XlispBytecode(1)
	if err != nil {
		t.Fatal(err)
	}
	wantCk, wantOps, err := XlispReference(code)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildXlisp(1)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(p)
	if err := c.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResultWords(p, c.Mem, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != wantCk || got[1] != wantOps {
		t.Errorf("xlisp: got (ck=%#x ops=%d), want (ck=%#x ops=%d)", got[0], got[1], wantCk, wantOps)
	}
	t.Logf("xlisp: %d dynamic instructions, %d bytecode ops", c.Steps(), got[1])
}

func TestSyntheticRuns(t *testing.T) {
	cfg := DefaultSynthetic()
	cfg.Iterations = 500
	p, err := BuildSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(p)
	if err := c.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResultWords(p, c.Mem, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantCk, wantTaken := SyntheticReference(cfg, p.DataSymbols["table"])
	if got[0] != wantCk || got[1] != wantTaken {
		t.Errorf("synthetic: got (ck=%#x taken=%d), want (ck=%#x taken=%d)",
			got[0], got[1], wantCk, wantTaken)
	}
	// And the taken rate should track the configured bias.
	want := float64(cfg.Iterations*cfg.BranchesPerIter) * float64(cfg.Bias) / 100
	if f := float64(got[1]); f < want*0.9 || f > want*1.1 {
		t.Errorf("synthetic taken count %d far from expected %.0f", got[1], want)
	}
}

func TestWorkloadSizes(t *testing.T) {
	// Every workload input should produce a healthy dynamic length at
	// scale 1: big enough to be representative, small enough for CI.
	for _, w := range All() {
		for _, in := range w.Inputs {
			p, err := in.Build(1)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, in.Name, err)
			}
			tr, err := trace.Record(p, 20_000_000)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, in.Name, err)
			}
			if tr.Len() < 50_000 {
				t.Errorf("%s/%s: only %d dynamic instructions (too small)", w.Name, in.Name, tr.Len())
			}
			if tr.Len() > 5_000_000 {
				t.Errorf("%s/%s: %d dynamic instructions (too large for default scale)", w.Name, in.Name, tr.Len())
			}
			st := tr.ComputeStats()
			if st.BranchDensity < 0.03 {
				t.Errorf("%s/%s: branch density %.3f too low to be interesting", w.Name, in.Name, st.BranchDensity)
			}
			t.Logf("%s/%s: %d insts, density %.3f, mean path %.2f, taken %.3f",
				w.Name, in.Name, tr.Len(), st.BranchDensity, st.MeanPathLen, st.TakenRate)
		}
	}
}

// TestQueensBytecode validates the N-queens backtracker in the xlisp
// bytecode against the known solution counts.
func TestQueensBytecode(t *testing.T) {
	for _, c := range []struct{ n, want uint32 }{{4, 2}, {5, 10}, {6, 4}, {8, 92}} {
		code, err := QueensOnlyBytecode(c.n)
		if err != nil {
			t.Fatal(err)
		}
		ck, _, err := XlispReference(code)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		// The only OUT is the solution count: checksum = 31*0 + count.
		if ck != c.want {
			t.Errorf("queens(%d) = %d solutions, want %d", c.n, ck, c.want)
		}
	}
}

func TestSelect(t *testing.T) {
	for _, c := range []struct {
		flag string
		want []string // nil: an error
	}{
		{"all", Names()},
		{"compress,xlisp", []string{"compress", "xlisp"}},
		{" xlisp , cc1,", []string{"xlisp", "cc1"}},
		{"gcc", nil},
		{"xlisp,gcc", nil},
		{"", nil},
		{" , ", nil},
	} {
		ws, err := SelectFlag(c.flag)
		if (err != nil) != (c.want == nil) {
			t.Errorf("SelectFlag(%q): err %v, want %v", c.flag, err, c.want)
			continue
		}
		if got := workloadNames(ws); c.want != nil && !slices.Equal(got, c.want) {
			t.Errorf("SelectFlag(%q) = %v, want %v", c.flag, got, c.want)
		}
	}
	for _, c := range []struct {
		names []string
		want  []string
	}{
		{nil, Names()},
		{[]string{"xlisp", " compress"}, []string{"xlisp", "compress"}},
		{[]string{"all"}, nil},
		{[]string{""}, nil},
	} {
		ws, err := Select(c.names)
		if (err != nil) != (c.want == nil) {
			t.Errorf("Select(%q): err %v, want %v", c.names, err, c.want)
			continue
		}
		if got := workloadNames(ws); c.want != nil && !slices.Equal(got, c.want) {
			t.Errorf("Select(%q) = %v, want %v", c.names, got, c.want)
		}
	}
}

func workloadNames(ws []Workload) []string {
	var out []string
	for _, w := range ws {
		out = append(out, w.Name)
	}
	return out
}
