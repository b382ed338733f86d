package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/llm/provider"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		CacheDir: t.TempDir(),
		Workers:  2,
		Stack:    provider.DefaultStackConfig(),
	}
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

// waitStatus polls until the job reaches one of the wanted statuses.
func waitStatus(t *testing.T, s *Server, id string, want ...string) Record {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		rec, ok := s.Get(id)
		if ok {
			for _, w := range want {
				if rec.Status == w {
					return rec
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec, _ := s.Get(id)
	t.Fatalf("job %s stuck in %q (want %v)", id, rec.Status, want)
	return Record{}
}

func spec(problem string) Spec {
	return Spec{Problem: problem, Model: "claude-3.5-sonnet", Language: "verilog"}
}

// TestJobLifecycleHTTP drives the full happy path over the wire:
// submit, poll, events, idempotent resubmit, metrics, health.
func TestJobLifecycleHTTP(t *testing.T) {
	s := newServer(t, testConfig(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Invalid specs are 400, not enqueued.
	for _, bad := range []Spec{
		spec("no_such_problem"),
		{Problem: "gate_xor", Model: "no-such-model"},
		{Problem: "gate_xor", Model: "claude-3.5-sonnet", Language: "ada"},
		{Problem: "gate_xor", Model: "claude-3.5-sonnet", Provider: "no-such-provider"},
	} {
		if code := postJob(t, ts.URL, bad); code != http.StatusBadRequest {
			t.Fatalf("bad spec %+v: status %d, want 400", bad, code)
		}
	}

	body, _ := json.Marshal(spec("gate_xor"))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d, want 202", resp.StatusCode)
	}
	if rec.ID == "" {
		t.Fatal("submit returned no job id")
	}

	final := waitStatus(t, s, rec.ID, StatusCompleted)
	if final.Verdict != "pass" {
		t.Errorf("gate_xor verdict %q, want pass", final.Verdict)
	}
	if final.Outcome == nil || !final.Outcome.SelfVerified {
		t.Errorf("outcome missing or not self-verified: %+v", final.Outcome)
	}
	if final.CheckpointsWritten == 0 {
		t.Error("no checkpoints written during the run")
	}
	if final.State != core.StateDone.String() {
		t.Errorf("final state %q, want done", final.State)
	}

	// Resubmitting a completed job is idempotent: 200, same record.
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var again Record
	json.NewDecoder(resp.Body).Decode(&again)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.ID != rec.ID || again.Status != StatusCompleted {
		t.Errorf("resubmit: %d %s/%s, want 200 %s/completed", resp.StatusCode, again.ID, again.Status, rec.ID)
	}

	// The event stream replays the full transcript and terminates.
	resp, err = http.Get(ts.URL + "/jobs/" + rec.ID + "/events?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var stages []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		stages = append(stages, ev.Stage+":"+ev.Detail)
	}
	joined := strings.Join(stages, "\n")
	for _, want := range []string{"job:queued", "job:running", "state:done", "job:completed: pass"} {
		if !strings.Contains(joined, want) {
			t.Errorf("event stream missing %q:\n%s", want, joined)
		}
	}

	// Metrics reflect the run.
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.CheckpointsWritten == 0 || snap.Jobs[StatusCompleted] != 1 {
		t.Errorf("metrics: %+v", snap)
	}
	if _, ok := snap.States[core.StateTestbenchGen.String()]; !ok {
		t.Errorf("metrics missing per-state latency: %+v", snap.States)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	// Unknown job id → 404.
	resp, err = http.Get(ts.URL + "/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
}

func postJob(t *testing.T, base string, s Spec) int {
	t.Helper()
	body, _ := json.Marshal(s)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressure429: with one worker held mid-job and a queue of
// depth one, the third distinct submission must bounce with 429 and a
// Retry-After hint — the bounded queue is the admission control.
func TestBackpressure429(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.StepHook = func(string, *core.Checkpoint) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return nil
	}
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	recA, err := s.Submit(spec("gate_xor"))
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the worker is now parked inside job A

	if _, err := s.Submit(spec("gate_or")); err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	body, _ := json.Marshal(spec("gate_and"))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.QueueDepth() != 1 {
		t.Errorf("QueueDepth = %d, want 1", s.QueueDepth())
	}

	close(release)
	waitStatus(t, s, recA.ID, StatusCompleted)

	// Capacity freed: the rejected spec now goes through.
	if code := postJob(t, ts.URL, spec("gate_and")); code != http.StatusAccepted {
		t.Fatalf("resubmit after drain: %d, want 202", code)
	}
}

// TestCancel covers both cancellation arms: a queued job dies before it
// starts; a running job has its context cancelled and lands in
// canceled with a classified abort verdict.
func TestCancel(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 4
	cfg.StepHook = func(string, *core.Checkpoint) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return nil
	}
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	recA, err := s.Submit(spec("gate_xor"))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	recB, err := s.Submit(spec("gate_or"))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job over HTTP.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+recB.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: %d", resp.StatusCode)
	}
	if rec, _ := s.Get(recB.ID); rec.Status != StatusCanceled {
		t.Fatalf("queued job status %q after cancel", rec.Status)
	}

	// Cancel the running job, then release the worker: the next LLM
	// call sees the dead context and the job finishes canceled.
	if !s.Cancel(recA.ID) {
		t.Fatal("Cancel(running) returned false")
	}
	close(release)
	rec := waitStatus(t, s, recA.ID, StatusCanceled, StatusCompleted)
	// gate_xor's post-checkpoint states may not need the provider again,
	// in which case the run legitimately completes; otherwise it must be
	// a classified cancel.
	if rec.Status == StatusCanceled && !strings.Contains(rec.Verdict, "aborted(canceled)") {
		t.Errorf("canceled verdict %q", rec.Verdict)
	}

	// A terminal job can't be cancelled: 409.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+recB.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel terminal: %d, want 409", resp.StatusCode)
	}
}

// TestCrashResume is the tentpole property end-to-end: kill a job
// mid-run (injected via StepHook — the in-process SIGKILL), restart the
// service on the same cache directory, and the job resumes from its
// checkpoint and finishes with the exact outcome of an uninterrupted
// run.
func TestCrashResume(t *testing.T) {
	// Reference: the same job on a pristine server.
	ref := newServer(t, testConfig(t))
	refRec, err := ref.Submit(spec("cmp_lt_w4"))
	if err != nil {
		t.Fatal(err)
	}
	want := waitStatus(t, ref, refRec.ID, StatusCompleted)

	// Crash the job after its third checkpoint.
	dir := t.TempDir()
	var steps atomic.Int32
	cfg := Config{
		CacheDir: dir,
		Workers:  1,
		Stack:    provider.DefaultStackConfig(),
		StepHook: func(string, *core.Checkpoint) error {
			if steps.Add(1) == 3 {
				return errors.New("injected crash")
			}
			return nil
		},
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s1.Submit(spec("cmp_lt_w4"))
	if err != nil {
		t.Fatal(err)
	}
	interrupted := waitStatus(t, s1, rec.ID, StatusInterrupted)
	if interrupted.Error == "" || interrupted.CheckpointsWritten < 3 {
		t.Fatalf("interrupted record incomplete: %+v", interrupted)
	}
	s1.Shutdown()

	// Restart on the same directory: recovery re-enqueues the job and it
	// resumes from the checkpoint without being resubmitted.
	s2 := newServer(t, Config{CacheDir: dir, Workers: 1, Stack: provider.DefaultStackConfig()})
	final := waitStatus(t, s2, rec.ID, StatusCompleted)
	if final.Resumes < 1 {
		t.Errorf("Resumes = %d, want >= 1", final.Resumes)
	}
	if final.StatesReplayed == 0 {
		t.Error("no states replayed on resume")
	}
	if final.Verdict != want.Verdict {
		t.Errorf("resumed verdict %q, want %q", final.Verdict, want.Verdict)
	}
	if !reflect.DeepEqual(final.Outcome, want.Outcome) {
		t.Errorf("resumed outcome diverged:\n got %+v\nwant %+v", final.Outcome, want.Outcome)
	}

	snap := s2.Metrics()
	if snap.JobsResumed < 1 || snap.StatesReplayed == 0 {
		t.Errorf("resume metrics: %+v", snap)
	}
}

// TestDrainInterruptsAndRestartResumes: Shutdown cancels running jobs;
// a job caught mid-run is interrupted with its checkpoint intact and
// the next server start drives it to the clean-run outcome.
func TestDrainInterruptsAndRestartResumes(t *testing.T) {
	ref := newServer(t, testConfig(t))
	refRec, err := ref.Submit(spec("vec_xor_w8"))
	if err != nil {
		t.Fatal(err)
	}
	want := waitStatus(t, ref, refRec.ID, StatusCompleted)

	dir := t.TempDir()
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	cfg := Config{
		CacheDir: dir,
		Workers:  1,
		Stack:    provider.DefaultStackConfig(),
		StepHook: func(string, *core.Checkpoint) error {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
			return nil
		},
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s1.Submit(spec("vec_xor_w8"))
	if err != nil {
		t.Fatal(err)
	}
	<-entered // job is past its first checkpoint, parked in the hook

	done := make(chan struct{})
	go func() { s1.Shutdown(); close(done) }()
	close(release) // let the worker observe the cancelled context
	<-done

	rec1, _ := s1.Get(rec.ID)
	if rec1.Status != StatusInterrupted && rec1.Status != StatusCompleted {
		t.Fatalf("after drain: status %q", rec1.Status)
	}

	// Submitting to a draining server is refused.
	if _, err := s1.Submit(spec("gate_and")); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining: %v, want ErrDraining", err)
	}

	s2 := newServer(t, Config{CacheDir: dir, Workers: 1, Stack: provider.DefaultStackConfig()})
	final := waitStatus(t, s2, rec.ID, StatusCompleted)
	if final.Verdict != want.Verdict {
		t.Errorf("post-drain verdict %q, want %q", final.Verdict, want.Verdict)
	}
	if !reflect.DeepEqual(final.Outcome, want.Outcome) {
		t.Errorf("post-drain outcome diverged:\n got %+v\nwant %+v", final.Outcome, want.Outcome)
	}
	if rec1.Status == StatusInterrupted && final.Resumes < 1 {
		t.Errorf("interrupted job completed without a resume (Resumes=%d)", final.Resumes)
	}
}

// TestResultCacheShortCircuit: a job whose cell is already in the
// result cache (here: left by a previous server's completed run whose
// job record was lost) completes instantly from the cache.
func TestResultCacheShortCircuit(t *testing.T) {
	dir := t.TempDir()
	s1 := newServer(t, Config{CacheDir: dir, Stack: provider.DefaultStackConfig()})
	rec, err := s1.Submit(spec("gate_or"))
	if err != nil {
		t.Fatal(err)
	}
	want := waitStatus(t, s1, rec.ID, StatusCompleted)
	s1.Shutdown()

	// Lose the job record but keep the result cache.
	if err := os.Remove(filepath.Join(dir, "jobs", rec.ID+".json")); err != nil {
		t.Fatal(err)
	}

	s2 := newServer(t, Config{CacheDir: dir, Stack: provider.DefaultStackConfig()})
	rec2, err := s2.Submit(spec("gate_or"))
	if err != nil {
		t.Fatal(err)
	}
	final := waitStatus(t, s2, rec2.ID, StatusCompleted)
	if final.CheckpointsWritten != 0 {
		t.Errorf("cache-served job wrote %d checkpoints", final.CheckpointsWritten)
	}
	if final.Verdict != want.Verdict || !reflect.DeepEqual(final.Outcome, want.Outcome) {
		t.Errorf("cache-served outcome diverged from original")
	}
}

// TestFlakyProviderInterruptsThenResumes: provider errors classified as
// transient leave the job interrupted with its checkpoint kept, and
// restarting the service (here with a fresh fault seed each time — the
// outage profile changes between process lives, the conversation state
// does not) resumes it until it completes with the offline-equivalent
// outcome. The fault RNG is per-provider-instance and deterministic, so
// a single fixed seed can livelock on the same call forever; rotating
// seeds across restarts is exactly the real-world "the outage ended"
// scenario.
func TestFlakyProviderInterruptsThenResumes(t *testing.T) {
	dir := t.TempDir()
	stack := provider.DefaultStackConfig()
	// Strip retries so injected faults surface as job interruptions
	// instead of being absorbed by the middleware.
	stack.Attempts = 1

	sp := spec("cmp_lt_w4")
	sp.Provider = "flaky"

	var final Record
	var id string
	interruptions := 0
	for seed := int64(1); seed <= 40; seed++ {
		s, err := New(Config{
			CacheDir: dir,
			Workers:  1,
			Stack:    stack,
			Flaky:    provider.FlakyConfig{Seed: seed, ErrorRate: 0.4},
		})
		if err != nil {
			t.Fatal(err)
		}
		if id == "" {
			rec, err := s.Submit(sp)
			if err != nil {
				s.Shutdown()
				t.Fatal(err)
			}
			id = rec.ID
		}
		// Recovery re-enqueued the interrupted job on later iterations;
		// nothing to submit.
		final = waitStatus(t, s, id, StatusCompleted, StatusInterrupted, StatusFailed)
		s.Shutdown()
		if final.Status == StatusInterrupted {
			interruptions++
			continue
		}
		break
	}
	if final.Status != StatusCompleted {
		t.Fatalf("flaky job never completed: %+v", final)
	}
	if interruptions == 0 {
		t.Skip("fault injection never fired mid-run; nothing to assert")
	}
	if final.Resumes == 0 {
		t.Errorf("job completed after %d interruptions with Resumes=0", interruptions)
	}

	// The completed outcome must match the offline run of the same cell:
	// fault injection wraps the same deterministic model.
	ref := newServer(t, testConfig(t))
	refRec, err := ref.Submit(spec("cmp_lt_w4"))
	if err != nil {
		t.Fatal(err)
	}
	want := waitStatus(t, ref, refRec.ID, StatusCompleted)
	got, wantOut := *final.Outcome, *want.Outcome
	got.Provider, wantOut.Provider = "", ""
	if !reflect.DeepEqual(got, wantOut) {
		t.Errorf("flaky-resumed outcome diverged from offline:\n got %+v\nwant %+v", got, wantOut)
	}
}

// TestRecoverSkipsTornRecord: a corrupt job record on disk must not
// wedge server startup.
func TestRecoverSkipsTornRecord(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "torn.json"), []byte("{\"id\": \"x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Config{CacheDir: dir, Stack: provider.DefaultStackConfig()})
	if got := len(s.List()); got != 0 {
		t.Errorf("torn record surfaced as %d jobs", got)
	}
}

// TestVerdictOf pins the cached-outcome verdict reconstruction.
func TestVerdictOf(t *testing.T) {
	cases := []struct {
		syntax, selfv bool
		want          string
	}{
		{false, false, "syntax-fail"},
		{true, true, "pass"},
		{true, false, "func-fail"},
	}
	for _, tc := range cases {
		out := exp.ProblemOutcome{LoopSyntaxOK: tc.syntax, SelfVerified: tc.selfv}
		if got := verdictOf(out); got != tc.want {
			t.Errorf("verdictOf(syntax=%v, selfv=%v) = %q, want %q", tc.syntax, tc.selfv, got, tc.want)
		}
	}
}

func ExampleSpec() {
	data, _ := json.Marshal(spec("gate_xor"))
	fmt.Println(string(data))
	// Output: {"problem":"gate_xor","model":"claude-3.5-sonnet","language":"verilog"}
}

// TestShutdownUnblocksEventSubscribers pins the drain bugfix: with a
// job parked mid-run and a live SSE subscriber attached, Shutdown must
// release the stream immediately — not leave it pinning the HTTP
// server for the whole drain timeout.
func TestShutdownUnblocksEventSubscribers(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.StepHook = func(string, *core.Checkpoint) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return nil
	}
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec, err := s.Submit(spec("gate_xor"))
	if err != nil {
		t.Fatal(err)
	}
	<-entered // job parked mid-run: its stream can only end via shutdown

	resp, err := http.Get(ts.URL + "/jobs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	streamDone := make(chan struct{})
	go func() { io.Copy(io.Discard, resp.Body); close(streamDone) }()

	shutdownDone := make(chan struct{})
	go func() { s.Shutdown(); close(shutdownDone) }()

	select {
	case <-streamDone:
		// released promptly — the drain is not hostage to the subscriber
	case <-time.After(2 * time.Second):
		t.Fatal("event stream still open 2s into shutdown")
	}
	close(release) // let the parked worker observe the cancelled context
	select {
	case <-shutdownDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not complete")
	}
}

// TestSubmitBodyLimits pins the request-body hardening: oversized
// bodies are 413, trailing garbage after the spec is 400, and a clean
// spec still goes through.
func TestSubmitBodyLimits(t *testing.T) {
	s := newServer(t, testConfig(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ae struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&ae)
		return resp.StatusCode, ae.Error
	}

	// A single 2 MiB JSON document blows the 1 MiB cap.
	big, _ := json.Marshal(map[string]string{"problem": strings.Repeat("a", 2<<20)})
	if code, msg := post(big); code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "exceeds") {
		t.Errorf("oversized body: %d %q, want 413", code, msg)
	}

	good, _ := json.Marshal(spec("gate_xor"))

	// Trailing garbage and concatenated documents are malformed requests.
	if code, msg := post(append(append([]byte{}, good...), []byte("garbage")...)); code != http.StatusBadRequest || !strings.Contains(msg, "trailing") {
		t.Errorf("trailing garbage: %d %q, want 400 trailing", code, msg)
	}
	if code, _ := post(append(append([]byte{}, good...), good...)); code != http.StatusBadRequest {
		t.Errorf("two specs in one body: %d, want 400", code)
	}
	if code, _ := post([]byte("{not json")); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d, want 400", code)
	}

	// The clean spec still lands.
	if code, _ := post(good); code != http.StatusAccepted {
		t.Errorf("valid spec: %d, want 202", code)
	}
}

// TestSlowLorisDefence drives the hardened http.Server over a real
// listener: a connection dripping headers is cut at ReadHeaderTimeout,
// and a stalled submission body is bounded by SubmitTimeout — while a
// well-behaved request on the same server still succeeds.
func TestSlowLorisDefence(t *testing.T) {
	cfg := testConfig(t)
	cfg.SubmitTimeout = 300 * time.Millisecond
	s := newServer(t, cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer("", s.Handler(), HTTPTimeouts{ReadHeader: 200 * time.Millisecond, Idle: time.Second})
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// Header drip: the server must hang up around ReadHeaderTimeout.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Slow:")
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a half-sent request")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("header drip held the connection %v, want ~200ms", d)
	}

	// Body stall: headers complete, body never arrives. The per-request
	// read deadline in handleSubmit must produce a response (or hangup)
	// promptly instead of waiting forever.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fmt.Fprintf(conn2, "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"pro")
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	start = time.Now()
	buf := make([]byte, 512)
	n, rerr := conn2.Read(buf)
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("stalled body held the connection %v, want ~SubmitTimeout", d)
	}
	if rerr == nil && !strings.Contains(string(buf[:n]), "400") {
		t.Errorf("stalled submission answered %q, want a 400", string(buf[:n]))
	}

	// The same server still serves an honest client.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz on hardened server: %d", resp.StatusCode)
	}
}

// TestRecordTTLGC: terminal job records (and their on-disk files)
// expire after the TTL while the shared result cells survive, so an
// expired job resubmitted later completes instantly from the cache.
// Startup recovery applies the same sweep to records left by an
// earlier process.
func TestRecordTTLGC(t *testing.T) {
	dir := t.TempDir()
	const ttl = 100 * time.Millisecond
	// The GC ticker is parked for the first server: collection is driven
	// through gc with explicit times, so a record cannot expire before
	// the assertions that must see it run.
	cfg := Config{
		CacheDir:   dir,
		Workers:    1,
		Stack:      provider.DefaultStackConfig(),
		RecordTTL:  ttl,
		GCInterval: time.Hour,
	}
	s := newServer(t, cfg)
	rec, err := s.Submit(spec("gate_xor"))
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, s, rec.ID, StatusCompleted)
	cell := filepath.Join(dir, rec.ID[:2], rec.ID+".json")
	if _, err := os.Stat(cell); err != nil {
		t.Fatalf("result cell missing after completion: %v", err)
	}

	if n := s.gc(done.Updated.Add(ttl - time.Nanosecond)); n != 0 {
		t.Fatalf("gc before the TTL expired %d record(s)", n)
	}
	if _, ok := s.Get(rec.ID); !ok {
		t.Fatal("record collected before its TTL")
	}
	if n := s.gc(time.Now().Add(ttl)); n != 1 {
		t.Fatalf("gc at the TTL expired %d record(s), want 1", n)
	}
	if _, ok := s.Get(rec.ID); ok {
		t.Fatal("expired record still served")
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", rec.ID+".json")); !os.IsNotExist(err) {
		t.Errorf("expired record file still on disk: %v", err)
	}
	if _, err := os.Stat(cell); err != nil {
		t.Errorf("GC removed the shared result cell: %v", err)
	}
	if snap := s.Metrics(); snap.RecordsExpired != 1 {
		t.Errorf("RecordsExpired = %d, want 1", snap.RecordsExpired)
	}

	// Resubmission of the expired job is served from the result cell.
	rec2, err := s.Submit(spec("gate_xor"))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitStatus(t, s, rec2.ID, StatusCompleted); final.CheckpointsWritten != 0 {
		t.Errorf("expired-then-resubmitted job recomputed (%d checkpoints)", final.CheckpointsWritten)
	}
	s.Shutdown()

	// Startup sweep: an old terminal record from a previous process life
	// is collected during New, before the GC ticker ever fires.
	old := Record{
		ID:      "feedfacefeedface",
		Spec:    spec("gate_or"),
		Status:  StatusFailed,
		Created: time.Now().Add(-time.Hour),
		Updated: time.Now().Add(-time.Hour),
	}
	data, _ := json.Marshal(old)
	if err := os.WriteFile(filepath.Join(dir, "jobs", old.ID+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newServer(t, cfg)
	if _, ok := s2.Get(old.ID); ok {
		t.Error("stale terminal record survived startup GC")
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", old.ID+".json")); !os.IsNotExist(err) {
		t.Errorf("stale record file survived startup GC: %v", err)
	}
	s2.Shutdown()

	// The ticker collects on its own: with it running, a finished job's
	// record disappears without any explicit gc call.
	cfg.GCInterval = 20 * time.Millisecond
	s3 := newServer(t, cfg)
	rec3, err := s3.Submit(spec("gate_xor"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := s3.Get(rec3.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("completed record never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPriorityScheduling: with the single worker parked, a priority-9
// submission dequeues before an earlier priority-0 one, and an
// out-of-range priority is rejected as a spec error.
func TestPriorityScheduling(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	var mu sync.Mutex
	var order []string
	seen := map[string]bool{}
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 8
	cfg.StepHook = func(id string, _ *core.Checkpoint) error {
		mu.Lock()
		if !seen[id] {
			seen[id] = true
			order = append(order, id)
		}
		mu.Unlock()
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return nil
	}
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blocker, err := s.Submit(spec("gate_xor"))
	if err != nil {
		t.Fatal(err)
	}
	<-entered // worker parked inside the blocker

	low := spec("gate_or") // priority 0, submitted first
	lowRec, err := s.Submit(low)
	if err != nil {
		t.Fatal(err)
	}
	high := spec("gate_and")
	high.Priority = 9
	highRec, err := s.Submit(high)
	if err != nil {
		t.Fatal(err)
	}

	close(release)
	waitStatus(t, s, blocker.ID, StatusCompleted)
	waitStatus(t, s, lowRec.ID, StatusCompleted)
	waitStatus(t, s, highRec.ID, StatusCompleted)

	mu.Lock()
	got := append([]string(nil), order...)
	mu.Unlock()
	want := []string{blocker.ID, highRec.ID, lowRec.ID}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dequeue order %v, want %v (high priority must jump the queue)", got, want)
	}

	// Out-of-range priority: SpecError in-process, 400 over HTTP.
	bad := spec("vec_and_w8")
	bad.Priority = 10
	var se *SpecError
	if _, err := s.Submit(bad); !errors.As(err, &se) {
		t.Errorf("priority 10: %v, want SpecError", err)
	}
	if code := postJob(t, ts.URL, bad); code != http.StatusBadRequest {
		t.Errorf("priority 10 over HTTP: %d, want 400", code)
	}
}
