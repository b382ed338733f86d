package runner

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Cache is a content-addressed on-disk result store: one JSON file per
// job, named by the job key, fanned out over 256 prefix directories.
// Result writes are crash-safe: the payload is written to a temp file,
// fsynced, renamed into place, and the directory entry is fsynced, so
// a process kill — or a power cut — mid-store can never leave a
// truncated entry under the final name.
//
// Alongside results the cache stores per-job checkpoints (the state-
// machine snapshots of internal/core) under a separate ckpt/ tree.
// Checkpoints are written atomically (temp file + rename) but not
// fsynced: losing the newest checkpoint in a crash only costs re-
// executing a few pipeline states, and checkpoint writes happen after
// every agent turn, so they must stay cheap.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// entry is the on-disk schema. The job fields are stored alongside the
// payload so cache directories are self-describing (and auditable with
// jq), not just the hash the file name carries.
type entry struct {
	Job     Job             `json:"job"`
	Payload json.RawMessage `json:"payload"`
}

// ckptDirName segregates checkpoints from result entries so Len and
// result scans never confuse the two.
const ckptDirName = "ckpt"

func (c *Cache) path(j Job) string {
	key := j.Key()
	return filepath.Join(c.dir, key[:2], key+".json")
}

func (c *Cache) ckptPath(j Job) string {
	key := j.Key()
	return filepath.Join(c.dir, ckptDirName, key[:2], key+".json")
}

// Load reads the cached payload for job into v. It returns false (and
// no error) when the entry does not exist; corrupt entries are
// reported as errors and treated as misses by the runner.
func (c *Cache) Load(j Job, v any) (bool, error) {
	data, err := os.ReadFile(c.path(j))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return false, err
	}
	if err := json.Unmarshal(e.Payload, v); err != nil {
		return false, err
	}
	return true, nil
}

// Store writes the payload for job atomically and durably: the entry
// is fsynced before the rename and the directory after it, so no kill
// point leaves a truncated or missing-but-reported entry.
func (c *Cache) Store(j Job, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(entry{Job: j, Payload: payload}, "", " ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(c.path(j), data, true)
}

// Checkpoints returns the job's checkpoint slot. Its Load, Store and
// Delete have the shape of core.CheckpointStore, so a checkpointed
// pipeline run persists and resumes through the cache without knowing
// its layout.
func (c *Cache) Checkpoints(j Job) JobCheckpoints { return JobCheckpoints{path: c.ckptPath(j)} }

// JobCheckpoints is one job's checkpoint file in a Cache.
type JobCheckpoints struct{ path string }

// Load returns the checkpoint's bytes as stored, nil when there is
// none. It does not decode them: the reader (core.Pipeline.Resume)
// reports a torn write from a crash and restarts the job from scratch,
// so a corrupt checkpoint never wedges the job.
func (s JobCheckpoints) Load() []byte {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return nil
	}
	return data
}

// Store atomically replaces the checkpoint.
func (s JobCheckpoints) Store(v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(s.path, data, false)
}

// Delete removes the checkpoint. A missing checkpoint is not an error.
func (s JobCheckpoints) Delete() error {
	err := os.Remove(s.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory and an atomic rename: no kill point leaves a torn file
// under the final name. With durable set it additionally
// fsyncs the file before the rename and the parent directory after,
// closing the two kill windows rename alone leaves open (a zero-length
// file under the final name on some filesystems, and a rename that
// never reaches the journal).
func WriteFileAtomic(path string, data []byte, durable bool) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if durable {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if durable {
		if d, err := os.Open(dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}

// Len counts the result entries currently on disk (O(entries); tests
// use it to assert what a sweep cached). Checkpoints are not results
// and are excluded.
func (c *Cache) Len() int {
	n := 0
	ckptRoot := filepath.Join(c.dir, ckptDirName)
	filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path == ckptRoot {
			return filepath.SkipDir
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" && !strings.HasPrefix(filepath.Base(path), ".") {
			n++
		}
		return nil
	})
	return n
}
