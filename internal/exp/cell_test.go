package exp

import (
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/edatool"
	"repro/internal/llm"
	"repro/internal/runner"
)

// TestResolve: a cell resolves only with known names, and to the job a
// sweep mints for it.
func TestResolve(t *testing.T) {
	suite := bench.NewSuite()
	cell := func(lang, prov string) RemoteCell {
		return RemoteCell{Problem: "gate_and", Model: "gpt-4o", Language: lang, Provider: prov}
	}
	for _, tc := range []struct {
		spec RemoteCell
		want edatool.Language
	}{
		{cell("", ""), edatool.Verilog},
		{cell("verilog", ""), edatool.Verilog},
		{cell("Verilog", ""), edatool.Verilog},
		{cell("VHDL", ""), edatool.VHDL},
	} {
		c, err := tc.spec.Resolve(suite)
		if err != nil || c.Language != tc.want || c.Job.Language != tc.want.String() {
			t.Errorf("language %q: %v, %v, want %v", tc.spec.Language, c.Language, err, tc.want)
		}
	}

	for _, bad := range []RemoteCell{
		{Problem: "no_such_problem", Model: "gpt-4o"},
		{Problem: "gate_and", Model: "no-such-model"},
		cell("vhd1", ""),
		cell("", "no-such-provider"),
	} {
		if _, err := bad.Resolve(suite); err == nil {
			t.Errorf("%+v resolved", bad)
		}
	}

	def, _ := cell("", "").Resolve(suite)
	off, _ := cell("", "offline").Resolve(suite)
	flaky, _ := cell("", "flaky").Resolve(suite)
	if def.Job != off.Job || def.Provider != "offline" || def.Job.Provider != "" {
		t.Errorf("default provider: %+v, %q; offline: %+v", def.Job, def.Provider, off.Job)
	}
	if flaky.Job.Provider != "flaky" || flaky.Job.Key() == def.Job.Key() {
		t.Errorf("flaky job %+v shares the offline key", flaky.Job)
	}
	if def.Config.Provider != nil {
		t.Error("resolved config carries a provider")
	}

	// Every job a sweep mints is the job its dispatched cell resolves
	// to, under each configuration benchsuite sweeps.
	configures := []func(*core.Config){nil}
	for _, c := range baseline.Comparators() {
		configures = append(configures, c.Configure)
	}
	for _, b := range []int{1, 2, 3, 5, 8} {
		configures = append(configures, func(c *core.Config) {
			c.MaxSyntaxIters = b
			c.MaxFuncIters = b
		})
	}
	problems := sampleProblems(40)
	for _, prov := range []string{"", "flaky"} {
		for _, configure := range configures {
			var mu sync.Mutex
			n := 0
			Run(llm.ProfileByName("llama3-70b"), edatool.VHDL, Options{
				Problems:  problems,
				Configure: configure,
				Provider:  prov,
				Dispatch: func(job runner.Job, spec RemoteCell) (ProblemOutcome, error) {
					c, err := spec.Resolve(suite)
					mu.Lock()
					defer mu.Unlock()
					n++
					if err != nil || c.Job != job {
						t.Errorf("%+v resolves to %+v (%v), sweep minted %+v", spec, c.Job, err, job)
					}
					return ProblemOutcome{}, nil
				},
			})
			if n != len(problems) {
				t.Fatalf("dispatched %d cells, want %d", n, len(problems))
			}
		}
	}
}
