package train

import (
	"bytes"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointLoad: whatever bytes sit where the snapshot should be,
// the loader never panics, and it restores the model only from a file
// that decodes whole with the right magic and version, a parameter
// block matching its CRC and a positive iteration count. Everything
// else — a truncated file included — is an error: a file that exists is
// never the "no snapshot yet, start fresh" answer, and a refused file
// leaves the model untouched. Seeds are a real snapshot Run wrote and
// the damage TestCorruptCheckpointFailsLoudly does to it, plus one
// well-formed file per header field gone wrong.
func FuzzCheckpointLoad(f *testing.F) {
	dir := f.TempDir()
	if _, err := Run(newFakeModel(10), Config{MaxIters: 3, Checkpoint: CheckpointConfig{Dir: dir}}); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if err != nil {
		f.Fatal(err)
	}
	var snap checkpointFile
	if err := gob.NewDecoder(bytes.NewReader(real)).Decode(&snap); err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(real)
	flipped[len(flipped)-3] ^= 0xff
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(flipped)
	f.Add([]byte("not a checkpoint"))
	f.Add([]byte{})
	for _, damage := range []func(*checkpointFile){
		func(s *checkpointFile) { s.Magic = "tcam-bundle" },
		func(s *checkpointFile) { s.Version++ },
		func(s *checkpointFile) { s.CRC++ },
		func(s *checkpointFile) { s.Iter = 0 },
		func(s *checkpointFile) { s.Iter = -2 },
		func(s *checkpointFile) { s.Params = nil; s.CRC = 0 },
	} {
		bad := snap
		damage(&bad)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&bad); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	// One directory serves every input: the engine runs a fuzz worker's
	// inputs one after another, and a directory made and removed per
	// input is most of what an execution would cost.
	f.Fuzz(func(t *testing.T, raw []byte) {
		const untouched = -7
		if err := os.WriteFile(filepath.Join(dir, checkpointFileName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m := newFakeModel(10)
		m.steps = untouched
		cp, err := newCheckpointer(m, CheckpointConfig{Dir: dir, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := cp.load()
		if ok == (err != nil) {
			t.Fatalf("load of an existing %d-byte file: ok=%v err=%v", len(raw), ok, err)
		}
		var want checkpointFile
		sound := gob.NewDecoder(bytes.NewReader(raw)).Decode(&want) == nil &&
			want.Magic == checkpointMagic && want.Version == checkpointVersion &&
			crc32.ChecksumIEEE(want.Params) == want.CRC && want.Iter > 0
		switch {
		case ok && !sound:
			t.Fatalf("restored from an unsound snapshot: %+v", got)
		case ok && got.Iter != want.Iter:
			t.Fatalf("restored iteration %d from a file recording %d", got.Iter, want.Iter)
		case !ok && !sound && m.steps != untouched:
			t.Fatalf("refused the file (%v) but left the model at step %d", err, m.steps)
		}
	})
}
