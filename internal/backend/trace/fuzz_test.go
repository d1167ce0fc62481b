package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzTraceDecode drives the trace reader with arbitrary bytes. Every input
// must either fail with an error, without panicking, or decode to a trace
// that validates, opens a Replayer, and decodes back to an equal value
// after Save.
func FuzzTraceDecode(f *testing.F) {
	golden, err := Load(filepath.Join("..", "..", "..", "testdata", "k40c-fit.trace.gz"))
	if err != nil {
		f.Fatal(err)
	}
	golden.Events = golden.Events[:6]
	head, err := json.Marshal(golden)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(head)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":2,"device":"Tesla K40c","events":[]}`))
	f.Add([]byte(`{"version":1,"device":"GTX 480","events":[]}`))
	f.Add([]byte(`{"version":1,"device":"Tesla K40c","events":[{"op":"collect","metrics":{}}]}`))

	path := filepath.Join(f.TempDir(), "trace.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoded trace does not validate: %v", err)
		}
		if _, err := NewReplayer(tr); err != nil {
			t.Fatalf("decoded trace opens no replayer: %v", err)
		}
		if err := tr.Save(path); err != nil {
			t.Fatalf("save: %v", err)
		}
		saved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Decode(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("saved trace does not decode: %v\n%s", err, saved)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("trace changed across Save and Decode:\n%+v\n%+v", tr, again)
		}
	})
}
