package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestSubmitRejectsTrailingData: POST /jobs takes exactly one JSON
// document. A second document or stray bytes after it are a 400; white
// space after it is not.
func TestSubmitRejectsTrailingData(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	const spec = `{"kind":"eval","app":"nedit","execs":1,"policies":["base"]}`
	for _, tc := range []struct {
		body string
		want int
	}{
		{spec + spec, http.StatusBadRequest},
		{spec + `}`, http.StatusBadRequest},
		{spec + ` x`, http.StatusBadRequest},
		{spec + `[]`, http.StatusBadRequest},
		{spec + " \n\t", http.StatusOK},
	} {
		resp, err := http.Post(hs.URL+"/jobs?wait=1", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
}

// FuzzJobSpec: every POST /jobs body either decodes to a spec that
// validates, or fails with an error; none panics. An accepted spec
// survives an encode and decode unchanged.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"kind":"eval","app":"nedit","seed":7,"scale":2,"execs":3,"policies":["base","tp","pcap","ideal"]}`))
	f.Add([]byte(`{"kind":"replay","trace":"u1","workers":2,"from_sec":1.5,"to_sec":90,"pid":4,"pc_from":16,"pc_to":4096}`))
	f.Add([]byte(`{"kind":"fleet","machines":12,"duration_sec":600,"mix":"mozilla:2,xemacs:1","timeout_sec":5}`))
	f.Add([]byte(`{"kind":"eval","app":"nedit"}{"kind":"eval","app":"nedit"}`))
	f.Add([]byte(`{"kind":"eval","app":"nedit","bogus":1}`))
	f.Add([]byte(`{"kind":"replay","trace":"t","pc_to":1099511627776}`))
	f.Add([]byte(`{"kind":"replay","trace":"t","scale":2}`))
	f.Add([]byte(`{"kind":"fleet","machines":3,"execs":2,"app":"nedit"}`))
	f.Add([]byte(`{"kind":"fleet","machines":3,"trace":"t","pid":4,"workers":2}`))
	f.Add([]byte(`{"kind":"eval","app":"nedit","mix":"nedit:1","machines":2,"from_sec":1,"workers":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(data))
		if err != nil {
			if spec != nil {
				t.Fatalf("decode failed (%v) but returned a spec", err)
			}
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("decoded spec does not validate: %v", err)
		}
		e1, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeJobSpec(bytes.NewReader(e1))
		if err != nil {
			t.Fatalf("encoded spec fails to decode: %v\n%s", err, e1)
		}
		if e2, _ := json.Marshal(again); !bytes.Equal(e1, e2) {
			t.Fatalf("encode→decode→encode differs:\n%s\nvs\n%s", e1, e2)
		}
	})
}
