package ledger

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// FuzzDecode drives the one record decoder with arbitrary file bytes, read
// as an entry and as a checkpoint. It must never panic, and a record it
// accepts always carries the key it is filed under and a payload that
// matches its checksum.
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/ledger
func FuzzDecode(f *testing.F) {
	l, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	e, c := testEntry("fuzz"), testCheckpoint("fuzz", 7)
	if err := l.Put(e); err != nil {
		f.Fatal(err)
	}
	if err := l.PutCheckpoint(c); err != nil {
		f.Fatal(err)
	}
	entry, err := os.ReadFile(l.path(e.Key, entryFile))
	if err != nil {
		f.Fatal(err)
	}
	ckpt, err := os.ReadFile(l.path(c.Key, ckptFile))
	if err != nil {
		f.Fatal(err)
	}
	torn := entry[:len(entry)/2]
	tampered := bytes.Replace(entry, []byte(`"q_conv_stag":4`), []byte(`"q_conv_stag":5`), 1)
	foreign := fmt.Sprintf(`{"format":%d,"key":%q,"result":{},"checksum":"x"}`, FormatVersion+1, e.Key)
	for _, seed := range [][]byte{entry, ckpt, torn, tampered, []byte(foreign)} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range kinds {
			rec := k.newRecord()
			ok, err := decode(data, e.Key, rec)
			if ok && err != nil {
				t.Fatalf("%s: accepted with error %v", k.ext, err)
			}
			if !ok {
				continue
			}
			format, key, _, sum, payload := rec.header()
			if *format != FormatVersion || *key != e.Key || len(payload) == 0 || *sum != Checksum(payload) {
				t.Fatalf("%s: accepted format %d, key %q, checksum %q over %d payload bytes",
					k.ext, *format, *key, *sum, len(payload))
			}
		}
	})
}
