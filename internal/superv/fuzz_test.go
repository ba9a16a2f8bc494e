package superv

import (
	"testing"

	"deesim/internal/durable/durabletest"
)

// FuzzJournalDecode holds the shared log decoder, folding run records,
// to the recovery contract over arbitrary bytes (durabletest.CheckDecode):
// a usable State or a typed *runx.Error, never a panic.
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte(`{"kind":"header","v":1,"tool":"deesim"}` + "\n"))
	f.Add([]byte(`{"kind":"header","v":1,"tool":"t"}` + "\n" +
		`{"kind":"start","key":"a","attempt":1}` + "\n" +
		`{"kind":"done","key":"a","attempt":1,"result":{"v":1}}` + "\n"))
	f.Add([]byte(`{"kind":"header","v":1,"tool":"t"}` + "\n" + `{"kind":"done","key":"a"`))
	f.Add([]byte("\x00\x01\x02 torn garbage"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decoded(Decode(data))
		durabletest.CheckDecode(t, data, d, err)
	})
}
