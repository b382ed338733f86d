package runner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/edatool"
	"repro/internal/llm"
)

// loadJSON decodes a checkpoint slot's bytes into v: false when the
// slot holds none or they do not decode.
func loadJSON(s JobCheckpoints, v any) bool {
	data := s.Load()
	return data != nil && json.Unmarshal(data, v) == nil
}

func ckptJob(p string) Job {
	return Job{Problem: p, Model: "claude-3.5-sonnet", Language: "verilog", Config: "syn5,fun5,sim200000,freeze=true,skipf=false"}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := ckptJob("gate_and")

	var miss map[string]int
	if loadJSON(c.Checkpoints(j), &miss) {
		t.Fatal("Load hit on empty cache")
	}
	if c.Checkpoints(j).Load() != nil {
		t.Fatal("checkpoint found in an empty cache")
	}

	want := map[string]int{"state": 3, "steps": 7}
	if err := c.Checkpoints(j).Store(want); err != nil {
		t.Fatal(err)
	}
	if c.Checkpoints(j).Load() == nil {
		t.Fatal("no checkpoint after store")
	}
	var got map[string]int
	if !loadJSON(c.Checkpoints(j), &got) {
		t.Fatal("Load missed after store")
	}
	if got["state"] != 3 || got["steps"] != 7 {
		t.Fatalf("round trip lost data: %v", got)
	}

	// Overwrite replaces, not appends.
	if err := c.Checkpoints(j).Store(map[string]int{"state": 4}); err != nil {
		t.Fatal(err)
	}
	got = nil
	loadJSON(c.Checkpoints(j), &got)
	if got["state"] != 4 || got["steps"] != 0 {
		t.Fatalf("overwrite did not replace: %v", got)
	}

	if err := c.Checkpoints(j).Delete(); err != nil {
		t.Fatal(err)
	}
	if c.Checkpoints(j).Load() != nil {
		t.Fatal("checkpoint survived delete")
	}
	// Deleting a missing checkpoint is not an error.
	if err := c.Checkpoints(j).Delete(); err != nil {
		t.Fatalf("second delete: %v", err)
	}
}

// TestCheckpointCorruptIsCleanMiss: a torn write (crash mid-rename on a
// non-atomic filesystem, partial disk) must degrade to "start over",
// never wedge the job.
func TestCheckpointCorruptIsCleanMiss(t *testing.T) {
	dir := t.TempDir()
	c, _ := OpenCache(dir)
	j := ckptJob("gate_or")
	if err := c.Checkpoints(j).Store(map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.ckptPath(j), []byte("{\"trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, resumed := core.New(core.DefaultConfig(llm.ProfileByName(j.Model), edatool.Verilog)).Resume(
		bench.NewSuite().ByID(j.Problem), c.Checkpoints(j))
	if resumed || m.Steps() != 0 {
		t.Fatalf("corrupt checkpoint resumed at step %d", m.Steps())
	}
}

// TestCheckpointsExcludedFromLen: checkpoints live in their own subtree
// and must never inflate the result count the manifest reports.
func TestCheckpointsExcludedFromLen(t *testing.T) {
	c, _ := OpenCache(t.TempDir())
	j := ckptJob("vec_xor_w8")
	if err := c.Store(j, map[string]bool{"pass": true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoints(j).Store(map[string]int{"state": 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoints(ckptJob("gate_and")).Store(map[string]int{"state": 2}); err != nil {
		t.Fatal(err)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1 (checkpoints must not count as results)", n)
	}
}

// TestCheckpointIndependentOfResult: the same job key addresses a
// result cell and a checkpoint cell without collision.
func TestCheckpointIndependentOfResult(t *testing.T) {
	c, _ := OpenCache(t.TempDir())
	j := ckptJob("cmp_lt_w4")
	if err := c.Store(j, "result"); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoints(j).Store("checkpoint"); err != nil {
		t.Fatal(err)
	}
	var res, cp string
	ok, err := c.Load(j, &res)
	if err != nil || !ok {
		t.Fatalf("Load: %v %v", ok, err)
	}
	if !loadJSON(c.Checkpoints(j), &cp) {
		t.Fatal("Load miss")
	}
	if res != "result" || cp != "checkpoint" {
		t.Fatalf("cells collided: %q %q", res, cp)
	}
	if err := c.Checkpoints(j).Delete(); err != nil {
		t.Fatal(err)
	}
	ok, _ = c.Load(j, &res)
	if !ok {
		t.Fatal("deleting the checkpoint removed the result")
	}
}

// TestAtomicWriteLeavesNoTemp: no temp droppings under either tree
// after stores complete (Len would be stable regardless — temp names
// are dot-prefixed — but the files should not exist at all).
func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	c, _ := OpenCache(dir)
	for _, p := range []string{"a", "b", "c"} {
		if err := c.Store(ckptJob(p), p); err != nil {
			t.Fatal(err)
		}
		if err := c.Checkpoints(ckptJob(p)).Store(p); err != nil {
			t.Fatal(err)
		}
	}
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) != ".json" {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
}
