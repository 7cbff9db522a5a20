package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// encodeWAL renders a decoded journal back to WAL bytes: the header
// (with any plan records already folded in), every lease event in
// order, then every result with its wall-clock out of band.
func encodeWAL(t *testing.T, h WALHeader, results []Result, leases []WALLease) []byte {
	t.Helper()
	var buf bytes.Buffer
	put := func(rec walRecord) {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", rec, err)
		}
		buf.Write(append(b, '\n'))
	}
	put(walRecord{Header: &h})
	for i := range leases {
		put(walRecord{Lease: &leases[i]})
	}
	for i := range results {
		put(walRecord{Result: &results[i], Wall: results[i].Wall})
	}
	return buf.Bytes()
}

// FuzzReadWALBytes: arbitrary bytes through the journal decoder that
// every control-plane restart runs on its state dir. Malformed journals
// must be rejected with an error, never a panic, and whatever decodes
// must survive decode → re-encode → decode unchanged (the second
// decode re-encodes to the same bytes), so a journal replayed and
// rewritten never drifts.
func FuzzReadWALBytes(f *testing.F) {
	for _, name := range []string{"wal.golden.jsonl", "checkpoint.golden.jsonl"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
		f.Add(golden[:len(golden)/2]) // torn mid-record
	}
	for _, s := range []string{
		`{"header":{"version":2,"campaign":"c","trials":2,"fingerprint":"ab","shards":[{"label":"0/1","trials":[0,1]}]}}` + "\n" +
			`{"plan":{"planner":"balance:accumulated","shards":[{"label":"0/2","trials":[0]},{"label":"1/2","trials":[1]}]}}` + "\n" +
			`{"result":{"trial":1,"key":"k","metrics":{}},"wall":0.5}` + "\n" +
			`{"result":{"trial":1,"key":"k"}}` + "\n",
		`{"header":{"version":2,"campaign":"c","trials":1,"fingerprint":"ab","shards":[]}}` + "\n" +
			`{"plan":{"shards":null}}` + "\n",
		`{"lease":{"event":"grant","id":"l1"}}` + "\n",
		`{"header":{"version":99,"fingerprint":"x","shards":[]}}` + "\n",
		`{"header":{"version":1,"fingerprint":"","shards":[]}}` + "\n",
		"",
		"\n\n",
		"not json\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, results, leases, err := ReadWALBytes(data, "fuzz.jsonl")
		if err != nil {
			return // rejected is fine; panicking is the bug
		}
		first := encodeWAL(t, h, results, leases)
		h2, results2, leases2, err := ReadWALBytes(first, "reencoded.jsonl")
		if err != nil {
			t.Fatalf("re-encoded journal no longer decodes: %v\ninput: %q\nre-encoded: %q", err, data, first)
		}
		if second := encodeWAL(t, h2, results2, leases2); !bytes.Equal(first, second) {
			t.Fatalf("decode → re-encode → decode drifted:\nfirst:  %q\nsecond: %q", first, second)
		}
	})
}
