package eva_test

import (
	"math/rand"
	"testing"

	"spanners/internal/eva"
	"spanners/internal/gen"
	"spanners/internal/model"
)

func TestFigure3Semantics(t *testing.T) {
	a := gen.Figure3EVA()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.IsDeterministic() {
		t.Fatal("Figure 3 automaton is deterministic")
	}
	if !a.IsFunctional() {
		t.Fatal("Figure 3 automaton is functional")
	}
	if !a.IsSequential() {
		t.Fatal("functional implies sequential")
	}

	out := a.Eval([]byte("ab"))
	want := []string{
		"x=[1,3)|y=[2,3)", // µ1
		"x=[2,3)|y=[1,3)", // µ2
		"x=[1,3)|y=[1,3)", // µ3
	}
	if out.Len() != len(want) {
		t.Fatalf("⟦A⟧ab has %d mappings, want %d:\n%v", out.Len(), len(want), out)
	}
	for _, k := range want {
		if !out.ContainsKey(k) {
			t.Fatalf("missing mapping %s in:\n%v", k, out)
		}
	}

	// Determinism ⇒ one accepting run per mapping.
	if runs := a.CountAcceptingRuns([]byte("ab")); runs != 3 {
		t.Fatalf("accepting runs = %d, want 3", runs)
	}
}

func TestFigure3OtherDocuments(t *testing.T) {
	a := gen.Figure3EVA()
	// On "ab…b" the q3 branch still works (loops on a,b) while the x/y
	// branches need exactly "ab" shape at the start.
	out := a.Eval([]byte("aab"))
	// q3 branch: open both at 1, loop, close at 4.
	if !out.ContainsKey("x=[1,4)|y=[1,4)") {
		t.Fatalf("missing q3-branch mapping: %v", out)
	}
	// The empty document has no accepting run (q0 must read at least one
	// letter on every branch).
	if got := a.Eval(nil).Len(); got != 0 {
		t.Fatalf("⟦A⟧ε = %d mappings, want 0", got)
	}
}

func TestDeterminismChecker(t *testing.T) {
	reg := model.NewRegistryOf("x")
	x, _ := reg.Lookup("x")
	a := eva.New(reg)
	q0 := a.AddState()
	q1 := a.AddState()
	q2 := a.AddState()
	a.SetInitial(q0)
	a.SetFinal(q2, true)
	a.AddCapture(q0, model.SetOf(model.Open(x)), q1)
	if !a.IsDeterministic() {
		t.Fatal("single capture per set is deterministic")
	}
	a.AddCapture(q0, model.SetOf(model.Open(x)), q2)
	if a.IsDeterministic() {
		t.Fatal("same marker set to two targets is nondeterministic")
	}

	b := eva.New(model.NewRegistry())
	p0 := b.AddState()
	p1 := b.AddState()
	b.SetInitial(p0)
	var cls model.ByteSet
	cls.AddRange('a', 'f')
	b.AddLetter(p0, cls, p1)
	b.AddByte(p0, 'c', p0)
	if b.IsDeterministic() {
		t.Fatal("overlapping byte classes are nondeterministic")
	}
}

func TestAddCapturePanicsOnEmptySet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := eva.New(model.NewRegistry())
	q := a.AddState()
	a.AddCapture(q, model.Set{}, q)
}

func TestDeterminizeFigure2(t *testing.T) {
	// The eVA of the Figure 2 VA is nondeterministic in spirit (two runs,
	// one mapping); after determinization each mapping has a unique run.
	v := gen.Figure2VA()
	e := v.ToExtended()
	d := e.Determinize()
	if !d.IsDeterministic() {
		t.Fatal("Determinize must produce a deterministic automaton")
	}
	if !d.IsSequential() {
		t.Fatal("determinization preserves sequentiality")
	}
	for _, doc := range []string{"", "a", "aa", "aaa"} {
		want := e.Eval([]byte(doc))
		got := d.Eval([]byte(doc))
		if !got.Equal(want) {
			t.Fatalf("doc %q: determinization changed semantics:\n%v", doc, want.Diff(got, 5))
		}
		if runs := d.CountAcceptingRuns([]byte(doc)); runs != got.Len() {
			t.Fatalf("doc %q: deterministic automaton has %d runs for %d mappings",
				doc, runs, got.Len())
		}
	}
}

func TestDeterminizeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	docs := []string{"", "a", "b", "ab", "ba", "aab", "abab"}
	for i := 0; i < 40; i++ {
		v := gen.RandomVA(rng, 2+rng.Intn(4), 1+rng.Intn(2), "ab")
		e := v.ToExtended()
		d := e.Determinize()
		if !d.IsDeterministic() {
			t.Fatalf("case %d: not deterministic", i)
		}
		for _, doc := range docs {
			want := e.Eval([]byte(doc))
			got := d.Eval([]byte(doc))
			if !got.Equal(want) {
				t.Fatalf("case %d doc %q:\n%v\nsource:\n%s", i, doc, want.Diff(got, 5), e)
			}
		}
	}
}

func TestSequentialize(t *testing.T) {
	// (!x{a})* compiles to a VA whose runs may reopen x; its eVA is not
	// sequential. Sequentialization must cut the invalid runs and keep
	// the valid ones.
	reg := model.NewRegistryOf("x")
	x, _ := reg.Lookup("x")
	a := eva.New(reg)
	q0 := a.AddState()
	q1 := a.AddState()
	a.SetInitial(q0)
	a.SetFinal(q0, true)
	a.AddCapture(q0, model.SetOf(model.Open(x)), q1)
	a.AddByte(q1, 'a', q1)
	a.AddCapture(q1, model.SetOf(model.CloseOf(x)), q0)
	a.AddByte(q0, 'a', q0)

	if a.IsSequential() {
		t.Fatal("reopening loop must not be sequential")
	}
	s := a.Sequentialize()
	if !s.IsSequential() {
		t.Fatal("Sequentialize must produce a sequential automaton")
	}
	for _, doc := range []string{"", "a", "aa", "aaa"} {
		want := a.Eval([]byte(doc)) // naive eval already filters invalid runs
		got := s.Eval([]byte(doc))
		if !got.Equal(want) {
			t.Fatalf("doc %q: sequentialization changed semantics:\n%v", doc, want.Diff(got, 5))
		}
	}
}

func TestSequentializePreservesDeterminism(t *testing.T) {
	a := gen.Figure3EVA()
	s := a.Sequentialize()
	if !s.IsDeterministic() {
		t.Fatal("sequentialization of a deterministic eVA must stay deterministic")
	}
	want := a.Eval([]byte("ab"))
	if got := s.Eval([]byte("ab")); !got.Equal(want) {
		t.Fatalf("semantics changed:\n%v", want.Diff(got, 5))
	}
}

func TestSequentializeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	docs := []string{"", "a", "ab", "ba", "bb", "aabb"}
	for i := 0; i < 40; i++ {
		v := gen.RandomVA(rng, 2+rng.Intn(4), 1+rng.Intn(2), "ab")
		e := v.ToExtended()
		s := e.Sequentialize()
		if !s.IsSequential() {
			t.Fatalf("case %d: Sequentialize output not sequential:\n%s", i, s)
		}
		for _, doc := range docs {
			want := e.Eval([]byte(doc))
			got := s.Eval([]byte(doc))
			if !got.Equal(want) {
				t.Fatalf("case %d doc %q:\n%v", i, doc, want.Diff(got, 5))
			}
		}
	}
}

func TestProp41Pipeline(t *testing.T) {
	// Proposition 4.1: any VA can be turned into a deterministic
	// sequential eVA with ≤ 2^n · 3^ℓ states. Verify both the semantics
	// and the bound on random instances.
	rng := rand.New(rand.NewSource(5))
	docs := []string{"", "a", "b", "ab", "abab"}
	for i := 0; i < 25; i++ {
		n := 2 + rng.Intn(3)
		l := 1 + rng.Intn(2)
		v := gen.RandomVA(rng, n, l, "ab")
		e := v.ToExtended()
		det := e.Determinize().Sequentialize()
		if !det.IsDeterministic() || !det.IsSequential() {
			t.Fatalf("case %d: pipeline must yield a deterministic sequential eVA", i)
		}
		bound := pow(2, n) * pow(3, l)
		if det.NumStates() > bound {
			t.Fatalf("case %d: %d states exceeds 2^%d·3^%d = %d",
				i, det.NumStates(), n, l, bound)
		}
		for _, doc := range docs {
			want := v.Eval([]byte(doc))
			got := det.Eval([]byte(doc))
			if !got.Equal(want) {
				t.Fatalf("case %d doc %q:\n%v", i, doc, want.Diff(got, 5))
			}
		}
	}
}

func pow(b, e int) int {
	out := 1
	for ; e > 0; e-- {
		out *= b
	}
	return out
}

func TestTrimEVA(t *testing.T) {
	reg := model.NewRegistryOf("x")
	x, _ := reg.Lookup("x")
	a := eva.New(reg)
	q0 := a.AddState()
	q1 := a.AddState()
	dead := a.AddState()
	a.SetInitial(q0)
	a.SetFinal(q1, true)
	a.AddCapture(q0, model.SetOf(model.Open(x), model.CloseOf(x)), q1)
	a.AddByte(q0, 'z', dead)
	tr := a.Trim()
	if tr.NumStates() != 2 {
		t.Fatalf("states = %d, want 2", tr.NumStates())
	}
	want := a.Eval(nil)
	if got := tr.Eval(nil); !got.Equal(want) {
		t.Fatalf("trim changed semantics:\n%v", want.Diff(got, 5))
	}
	if !want.ContainsKey("x=[1,1)") {
		t.Fatalf("empty-span capture expected, got %v", want)
	}
}

func TestUsedVarsAndSizes(t *testing.T) {
	a := gen.Figure3EVA()
	if a.UsedVars() != 0b11 {
		t.Fatalf("UsedVars = %b", a.UsedVars())
	}
	if a.NumStates() != 10 {
		t.Fatalf("states = %d, want 10", a.NumStates())
	}
	if a.NumCaptureTransitions() != 7 {
		t.Fatalf("capture transitions = %d, want 7", a.NumCaptureTransitions())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := gen.Figure3EVA()
	c := a.Clone()
	c.SetFinal(0, true)
	if a.IsFinal(0) {
		t.Fatal("clone must not share finality")
	}
}

func TestStepScansClasses(t *testing.T) {
	a := gen.Figure3EVA()
	if to, ok := a.Step(0, 'a'); ok {
		_ = to
		t.Fatal("q0 has no letter transitions in Figure 3")
	}
	if to, ok := a.Step(3, 'b'); !ok || to != 3 {
		t.Fatalf("Step(q3, b) = %d %v, want self-loop", to, ok)
	}
}
