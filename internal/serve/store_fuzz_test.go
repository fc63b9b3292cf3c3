package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"pubtac"
)

// FuzzStoreGet feeds the store's disk-entry decode: the fuzzed bytes are
// the disk entry of a key in a fresh store whose memory tier is cold. Get
// must never panic, and it must hit exactly when checkBody accepts the
// bytes: then it returns them unchanged, from the disk tier on the first Get
// and from the memory tier on the second. Any other entry is a miss that
// counts one corrupt entry.
func FuzzStoreGet(f *testing.F) {
	victim := []byte(fmt.Sprintf(`{"schema_version": %d, "jobs": [], "tag": %q}`,
		pubtac.ResultSchemaVersion, "victim"))
	f.Add(victim)
	f.Add(victim[:len(victim)/2])
	stored, err := json.Marshal(pubtac.Result{
		SchemaVersion: pubtac.ResultSchemaVersion,
		Program:       "bs",
		Input:         "v9",
		RPub:          3000,
		RTac:          4100,
		R:             4100,
		RunsUsed:      4100,
		MaxObserved:   1532,
		Curve:         []pubtac.PWCETPoint{{Prob: 1e-12, Cycles: 1711.5}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stored)
	f.Add(stored[:len(stored)-1])
	f.Add([]byte(fmt.Sprintf(`{"schema_version": %d, "jobs": []}`, pubtac.ResultSchemaVersion+1)))
	f.Add([]byte(`{"jobs": []}`))
	f.Add([]byte("not json"))
	f.Add([]byte{})

	key := pubtac.Fingerprint{1}
	f.Fuzz(func(t *testing.T, entry []byte) {
		st, err := NewStore(t.TempDir(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.path(key), entry, 0o644); err != nil {
			t.Fatal(err)
		}
		want := checkBody(entry) == nil
		body, tier, ok := st.Get(key)
		if ok != want {
			t.Fatalf("Get ok = %v, checkBody accepts = %v", ok, want)
		}
		if !ok {
			if s := st.Stats(); s.Corrupt != 1 || s.Misses != 1 {
				t.Fatalf("rejected entry: stats %+v, want Corrupt=1 Misses=1", s)
			}
			return
		}
		if tier != TierDisk || !bytes.Equal(body, entry) {
			t.Fatalf("first Get: tier %s, body %q, want the entry from %s", tier, body, TierDisk)
		}
		if body, tier, ok = st.Get(key); !ok || tier != TierMem || !bytes.Equal(body, entry) {
			t.Fatalf("second Get: ok %v, tier %s, body %q, want the entry from %s", ok, tier, body, TierMem)
		}
		if s := st.Stats(); s.Corrupt != 0 {
			t.Fatalf("accepted entry counted corrupt: %+v", s)
		}
	})
}
