package coord

import (
	"testing"

	"deesim/internal/durable/durabletest"
)

// FuzzCoordJournal holds the shared log decoder, folding coordinator
// records, to the recovery contract the superv fuzzer enforces
// (durabletest.CheckDecode: typed errors, valid completions, torn-tail
// truncation confined to the final line), plus the coordinator's own
// rule that no cell is both done and awaiting re-queue.
func FuzzCoordJournal(f *testing.F) {
	f.Add([]byte(`{"kind":"header","v":1,"tool":"deesim-coord"}` + "\n"))
	f.Add([]byte(`{"kind":"header","v":1,"tool":"t"}` + "\n" +
		`{"kind":"assign","key":"a","worker":"w0001","lease":"l1","attempt":1}` + "\n" +
		`{"kind":"done","key":"a","attempt":1,"result":{"v":1}}` + "\n"))
	f.Add([]byte(`{"kind":"header","v":1,"tool":"t"}` + "\n" +
		`{"kind":"done","key":"a","result":{"v":1}}` + "\n" +
		`{"kind":"done","key":"a","result":{"v":2}}` + "\n"))
	f.Add([]byte(`{"kind":"header","v":1,"tool":"t"}` + "\n" + `{"kind":"done","key":"a"`))
	f.Add([]byte(`{"kind":"header","v":1,"tool":"t"}` + "\n" +
		`{"kind":"expire","key":"b","attempt":3,"reason":"worker heartbeat lost"}` + "\n"))
	f.Add([]byte("\x00\x01\x02 torn garbage"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		d, _ := decoded(st, err)
		durabletest.CheckDecode(t, data, d, err)
		if err != nil {
			return
		}
		for k := range st.Attempts {
			if k == "" {
				t.Fatal("recovered attempt record without a key")
			}
			if _, done := st.Done[k]; done {
				t.Fatalf("cell %q both done and pending re-queue", k)
			}
		}
	})
}
