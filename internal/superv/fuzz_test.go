package superv

import (
	"testing"

	"deesim/internal/durable/durabletest"
)

// FuzzJournalDecode holds the shared log decoder, folding run records,
// to the recovery contract over arbitrary bytes (durabletest.CheckDecode):
// a usable State or a typed *runx.Error, never a panic. No key is both
// done and pending. The seeds include the legacy coordinator shapes —
// assign/expire kinds, worker/lease/spec/reason fields, duplicate
// completions — that resumed fleet journals still hold.
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte(`{"kind":"header","v":1,"tool":"deesim"}` + "\n"))
	f.Add([]byte(`{"kind":"header","v":1,"tool":"t"}` + "\n" +
		`{"kind":"start","key":"a","attempt":1}` + "\n" +
		`{"kind":"done","key":"a","attempt":1,"result":{"v":1}}` + "\n"))
	f.Add([]byte(`{"kind":"header","v":1,"tool":"t"}` + "\n" + `{"kind":"done","key":"a"`))
	f.Add([]byte("\x00\x01\x02 torn garbage"))
	f.Add([]byte(""))
	f.Add([]byte(`{"kind":"header","v":1,"tool":"deesim-coord"}` + "\n"))
	f.Add([]byte(`{"kind":"header","v":1,"tool":"t"}` + "\n" +
		`{"kind":"assign","key":"a","worker":"w0001","lease":"l1","attempt":1}` + "\n" +
		`{"kind":"done","key":"a","attempt":1,"result":{"v":1}}` + "\n"))
	f.Add([]byte(`{"kind":"header","v":1,"tool":"t"}` + "\n" +
		`{"kind":"done","key":"a","result":{"v":1}}` + "\n" +
		`{"kind":"done","key":"a","result":{"v":2}}` + "\n"))
	f.Add([]byte(`{"kind":"header","v":1,"tool":"t"}` + "\n" +
		`{"kind":"expire","key":"b","attempt":3,"reason":"worker heartbeat lost"}` + "\n"))
	f.Add([]byte(`{"kind":"header","v":1,"tool":"t"}` + "\n" +
		`{"kind":"assign","key":"c","worker":"w0002","lease":"l2","attempt":1,"spec":true}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		d, _ := decoded(st, err)
		durabletest.CheckDecode(t, data, d, err)
		if err != nil {
			return
		}
		for k := range st.Pending {
			if _, done := st.Done[k]; done {
				t.Fatalf("key %q both done and pending", k)
			}
		}
	})
}
