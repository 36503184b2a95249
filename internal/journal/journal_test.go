package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type entry struct {
	Type string `json:"type"`
	N    int    `json:"n"`
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(entry{Type: "e", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3", len(lines))
	}
	for i, raw := range lines {
		var e entry
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		if e.N != i {
			t.Errorf("line %d: n=%d", i, e.N)
		}
	}
}

func TestMissingFileIsEmpty(t *testing.T) {
	lines, err := Read(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || lines != nil {
		t.Fatalf("Read(missing) = %v, %v; want nil, nil", lines, err)
	}
}

func TestTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	content := `{"type":"a"}` + "\n" + `{"type":"b"}` + "\n" + `{"type":"c","trunc`
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
	lines, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2 (torn tail dropped)", len(lines))
	}
}

func TestMidFileCorruptionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	content := `{"type":"a"}` + "\n" + `garbage` + "\n" + `{"type":"b"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), "mid-file") {
		t.Fatalf("Read(corrupt middle) = %v, want mid-file error", err)
	}
}

func TestAppendResumesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j1, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	j1.Append(entry{N: 0})
	j1.Close()
	j2, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(entry{N: 1})
	j2.Close()
	lines, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
}

// FuzzRead: arbitrary file bytes never panic Read, and every line it
// accepts is a non-empty JSON document.
func FuzzRead(f *testing.F) {
	f.Add([]byte(`{"type":"a"}` + "\n" + `{"type":"b","n":1}` + "\n"))
	f.Add([]byte(`{"type":"a"}` + "\n" + `{"type":"c","trunc`))
	f.Add([]byte(`{"type":"a"}` + "\n" + `garbage` + "\n" + `{"type":"b"}` + "\n"))
	f.Add([]byte("\n\n[1,2]\r\n\"s\"\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		lines, err := Read(path)
		if err != nil {
			return
		}
		for i, raw := range lines {
			if len(raw) == 0 || !json.Valid(raw) {
				t.Fatalf("accepted line %d is not a JSON document: %q", i, raw)
			}
		}
	})
}
