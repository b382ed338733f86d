package runner

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

func testJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Problem:  fmt.Sprintf("prob-%03d", i),
			Model:    "claude-3.5-sonnet",
			Language: "Verilog",
			Config:   "s5,f5",
		}
	}
	return jobs
}

type payload struct {
	ID    string `json:"id"`
	Value int    `json:"value"`
}

func TestJobKeyDeterministicAndDistinct(t *testing.T) {
	a := Job{Problem: "p", Model: "m", Language: "Verilog", Config: "c"}
	if a.Key() != a.Key() {
		t.Fatal("key not deterministic")
	}
	if len(a.Key()) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(a.Key()))
	}
	// The separator must prevent field-boundary aliasing.
	b := Job{Problem: "pm", Model: "", Language: "Verilog", Config: "c"}
	if a.Key() == b.Key() {
		t.Fatal("distinct jobs share a key")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	job := testJobs(1)[0]

	var miss payload
	ok, err := c.Load(job, &miss)
	if err != nil || ok {
		t.Fatalf("Load on empty cache = %v, %v; want miss", ok, err)
	}

	want := payload{ID: job.Problem, Value: 42}
	if err := c.Store(job, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	ok, err = c.Load(job, &got)
	if err != nil || !ok {
		t.Fatalf("Load after Store = %v, %v", ok, err)
	}
	if got != want {
		t.Fatalf("round-trip: got %+v, want %+v", got, want)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCacheCorruptEntryIsError(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := testJobs(1)[0]
	if err := c.Store(job, payload{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(job), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	var v payload
	if ok, err := c.Load(job, &v); ok || err == nil {
		t.Fatalf("corrupt entry: Load = %v, %v; want error miss", ok, err)
	}
}

func TestExecuteCachesAndResumes(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(20)
	run := func(i int, j Job) (payload, error) {
		return payload{ID: j.Problem, Value: i}, nil
	}

	// Cold run: everything executes and lands in the cache.
	r1 := &Runner{Cache: cache, Workers: 4}
	res1 := Execute(r1, jobs, run)
	st := r1.Stats()
	if st.Executed != len(jobs) || st.CacheHits != 0 {
		t.Fatalf("cold run stats: %+v", st)
	}
	if cache.Len() != len(jobs) {
		t.Fatalf("cache holds %d entries, want %d", cache.Len(), len(jobs))
	}

	// Simulate a crash that lost some results: delete 7 entries.
	for i := 0; i < 7; i++ {
		os.Remove(cache.path(jobs[i]))
	}

	// Resumed run: only the lost cells recompute.
	var reran atomic.Int32
	r2 := &Runner{Cache: cache, Workers: 4}
	res2 := Execute(r2, jobs, func(i int, j Job) (payload, error) {
		reran.Add(1)
		return run(i, j)
	})
	st = r2.Stats()
	if st.Executed != 7 || st.CacheHits != len(jobs)-7 {
		t.Fatalf("resume stats: %+v", st)
	}
	if int(reran.Load()) != 7 {
		t.Fatalf("recomputed %d cells, want 7", reran.Load())
	}
	for i := range jobs {
		if res1[i].Value != res2[i].Value {
			t.Fatalf("job %d: resumed value %+v != original %+v", i, res2[i].Value, res1[i].Value)
		}
	}
}

func TestExecuteRefreshOverwrites(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(5)
	Execute(&Runner{Cache: cache}, jobs, func(i int, j Job) (payload, error) {
		return payload{Value: 1}, nil
	})
	r := &Runner{Cache: cache, Refresh: true}
	res := Execute(r, jobs, func(i int, j Job) (payload, error) {
		return payload{Value: 2}, nil
	})
	if st := r.Stats(); st.CacheHits != 0 || st.Executed != len(jobs) {
		t.Fatalf("refresh stats: %+v", st)
	}
	for _, re := range res {
		if re.Value.Value != 2 {
			t.Fatalf("refresh kept stale value: %+v", re)
		}
	}
	var v payload
	if ok, _ := cache.Load(jobs[0], &v); !ok || v.Value != 2 {
		t.Fatalf("cache not overwritten: %+v ok=%v", v, ok)
	}
}

func TestExecuteFailurePropagates(t *testing.T) {
	boom := errors.New("boom")
	r := &Runner{}
	res := Execute(r, testJobs(3), func(i int, j Job) (payload, error) {
		if i == 1 {
			return payload{}, boom
		}
		return payload{Value: i}, nil
	})
	if res[1].Status != Failed || !errors.Is(res[1].Err, boom) {
		t.Fatalf("failed job: %+v", res[1])
	}
	if st := r.Stats(); st.Failed != 1 || st.Executed != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestWorkerPoolConcurrency exercises the pool under -race: many jobs,
// shared cache, shared progress sink, bounded concurrency.
func TestWorkerPoolConcurrency(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r := &Runner{Workers: 8, Cache: cache, Progress: NewProgress(&buf)}
	jobs := testJobs(64)
	var inFlight, peak atomic.Int32
	res := Execute(r, jobs, func(i int, j Job) (payload, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer inFlight.Add(-1)
		return payload{Value: i}, nil
	})
	if p := peak.Load(); p > 8 {
		t.Fatalf("observed %d concurrent jobs, pool is 8", p)
	}
	for i, re := range res {
		if re.Value.Value != i {
			t.Fatalf("result order broken at %d: %+v", i, re)
		}
	}
	if got := strings.Count(buf.String(), "\n"); got != len(jobs) {
		t.Fatalf("progress printed %d lines, want %d", got, len(jobs))
	}
}

func TestStoreErrorsAreCounted(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy each job's prefix directory with a regular file so Store's
	// MkdirAll fails (chmod tricks don't work when tests run as root).
	jobs := testJobs(3)
	for _, j := range jobs {
		if err := os.WriteFile(filepath.Dir(cache.path(j)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := &Runner{Cache: cache}
	Execute(r, jobs, func(i int, j Job) (payload, error) {
		return payload{Value: i}, nil
	})
	if st := r.Stats(); st.StoreErrors != 3 || st.Executed != 3 {
		t.Fatalf("stats with unwritable cache: %+v", st)
	}
}
