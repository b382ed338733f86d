package serve

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
)

// TestSpecJSON pins the JSON of job specs: the POST /jobs body a client
// sends, and the "spec" of every job record on disk. Each spec must
// marshal to its line and decode from it back to itself.
func TestSpecJSON(t *testing.T) {
	cases := []struct {
		spec Spec
		json string
	}{
		{Spec{}, `{"problem":"","model":"","language":""}`},
		{spec("gate_xor"), `{"problem":"gate_xor","model":"claude-3.5-sonnet","language":"verilog"}`},
		{
			Spec{Problem: "fsm_shift_ena", Model: "gpt-4o", Language: "vhdl", Provider: "flaky"},
			`{"problem":"fsm_shift_ena","model":"gpt-4o","language":"vhdl","provider":"flaky"}`,
		},
		{
			Spec{Problem: "cmp_lt_w4", Model: "llama3-70b", Language: "verilog",
				MaxSyntaxIters: 8, MaxFuncIters: 32, MaxSimTime: 1_000_000},
			`{"problem":"cmp_lt_w4","model":"llama3-70b","language":"verilog","max_syntax_iters":8,"max_func_iters":32,"max_sim_time":1000000}`,
		},
		{
			Spec{Problem: "gate_or", Model: "claude-3.5-sonnet", Language: "vhdl", Provider: "offline",
				MaxSyntaxIters: 1, MaxFuncIters: 2, MaxSimTime: 3, CoGenTestbench: true, SkipFunctional: true},
			`{"problem":"gate_or","model":"claude-3.5-sonnet","language":"vhdl","provider":"offline","max_syntax_iters":1,"max_func_iters":2,"max_sim_time":3,"cogen_testbench":true,"skip_functional":true}`,
		},
	}
	for _, tc := range cases {
		data, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.json {
			t.Errorf("marshal %+v:\n got %s\nwant %s", tc.spec, data, tc.json)
		}
		var back Spec
		if err := json.Unmarshal([]byte(tc.json), &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, tc.spec) {
			t.Errorf("unmarshal %s = %+v, want %+v", tc.json, back, tc.spec)
		}
	}
}

// TestRecordJSON pins the bytes of one job record as the server
// persists it under jobs/, and its round trip.
func TestRecordJSON(t *testing.T) {
	created := time.Date(2025, 3, 4, 5, 6, 7, 8, time.UTC)
	rec := Record{
		ID: "0123456789abcdef",
		Spec: Spec{Problem: "vec_xor_w8", Model: "gpt-4o", Language: "vhdl",
			MaxFuncIters: 8, CoGenTestbench: true},
		Status:  StatusCompleted,
		State:   core.StateDone.String(),
		Verdict: "func-fail",
		Created: created,
		Updated: created.Add(1500 * time.Millisecond),
		Outcome: &exp.ProblemOutcome{
			ID: "vec_xor_w8", Category: "vector",
			BaselineSyntaxOK: true, LoopSyntaxOK: true,
			SyntaxIters: 2, FuncIters: 8,
			Latency: core.Latency{Baseline: 1.5, Syntax: 2.25, Func: 30.125},
		},
		Resumes:            1,
		CheckpointsWritten: 17,
		StatesReplayed:     2,
	}
	const want = `{
 "id": "0123456789abcdef",
 "spec": {
  "problem": "vec_xor_w8",
  "model": "gpt-4o",
  "language": "vhdl",
  "max_func_iters": 8,
  "cogen_testbench": true
 },
 "status": "completed",
 "state": "done",
 "verdict": "func-fail",
 "created": "2025-03-04T05:06:07.000000008Z",
 "updated": "2025-03-04T05:06:08.500000008Z",
 "outcome": {
  "id": "vec_xor_w8",
  "category": "vector",
  "baseline_syntax_ok": true,
  "baseline_func_ok": false,
  "loop_syntax_ok": true,
  "loop_func_ok": false,
  "self_verified": false,
  "syntax_iters": 2,
  "func_iters": 8,
  "latency": {
   "baseline": 1.5,
   "syntax": 2.25,
   "func": 30.125
  }
 },
 "resumes": 1,
 "checkpoints_written": 17,
 "states_replayed": 2
}`
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != want {
		t.Errorf("record:\n%s\nwant\n%s", data, want)
	}
	var back Record
	if err := json.Unmarshal([]byte(want), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Errorf("record round trip = %+v, want %+v", back, rec)
	}
}
