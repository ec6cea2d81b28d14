package hypothesis

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// validSpec is the canonical form of a representative spec (matching
// examples/pcap-vs-timeout.json in shape).
const validSpec = `{
  "name": "pcap-beats-timeout",
  "hypothesis": "PCAP saves energy vs a 10s timeout on xemacs",
  "app": "xemacs",
  "candidate": "pcap",
  "baseline": "tp",
  "criteria": [
    {
      "metric": "savings_pct",
      "op": ">=",
      "value": 5
    }
  ],
  "counterfactual": {
    "flip": "worst",
    "topn": 3
  }
}
`

func TestParseValidSpec(t *testing.T) {
	s, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "pcap-beats-timeout" || s.App != "xemacs" || s.Candidate != "pcap" {
		t.Fatalf("parsed spec = %+v", s)
	}
	if s.seed() == 0 || s.scale() != 1 {
		t.Fatalf("effective seed/scale = %d/%d", s.seed(), s.scale())
	}
}

// TestEncodeIsFixedPoint: Encode∘Parse must be the identity on canonical
// encodings — the property the fuzz target generalizes.
func TestEncodeIsFixedPoint(t *testing.T) {
	s, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(e1)
	if err != nil {
		t.Fatalf("re-parse of canonical encoding: %v", err)
	}
	e2, err := s2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1, e2) {
		t.Fatalf("encode is not a fixed point:\n%s\nvs\n%s", e1, e2)
	}
}

func TestParseRejects(t *testing.T) {
	mutate := func(f func(s string) string) []byte { return []byte(f(validSpec)) }
	cases := []struct {
		name string
		in   []byte
		want string // substring of the error
	}{
		{"empty", nil, "parsing spec"},
		{"garbage", []byte("not json"), "parsing spec"},
		{"unknown field", mutate(func(s string) string {
			return strings.Replace(s, `"name"`, `"nom"`, 1)
		}), "unknown field"},
		{"trailing data", append([]byte(validSpec), []byte("{}")...), "trailing data"},
		{"trailing brace", append([]byte(validSpec), []byte("}")...), "trailing data"},
		{"trailing bracket", append([]byte(validSpec), []byte(" ]")...), "trailing data"},
		{"no name", mutate(func(s string) string {
			return strings.Replace(s, `"pcap-beats-timeout"`, `""`, 1)
		}), "needs a name"},
		{"no hypothesis", mutate(func(s string) string {
			return strings.Replace(s, `"PCAP saves energy vs a 10s timeout on xemacs"`, `""`, 1)
		}), "hypothesis statement"},
		{"unknown app", mutate(func(s string) string {
			return strings.Replace(s, `"xemacs"`, `"notepad"`, 1)
		}), "unknown app"},
		{"unknown policy", mutate(func(s string) string {
			return strings.Replace(s, `"pcap"`, `"magic"`, 1)
		}), "unknown candidate policy"},
		{"unknown metric", mutate(func(s string) string {
			return strings.Replace(s, `"savings_pct"`, `"vibes"`, 1)
		}), "unknown metric"},
		{"unknown op", mutate(func(s string) string {
			return strings.Replace(s, `">="`, `"~="`, 1)
		}), "unknown op"},
		{"no criteria", mutate(func(s string) string {
			return strings.Replace(s, `"criteria": [
    {
      "metric": "savings_pct",
      "op": ">=",
      "value": 5
    }
  ]`, `"criteria": []`, 1)
		}), "at least one criterion"},
		{"bad flip", mutate(func(s string) string {
			return strings.Replace(s, `"worst"`, `"best"`, 1)
		}), "counterfactual flip"},
		{"unknown device", mutate(func(s string) string {
			return strings.Replace(s, `"app": "xemacs",`, `"app": "xemacs", "device": "SSD",`, 1)
		}), "unknown device"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestExampleSpecIsCanonical: the committed example spec must parse,
// validate, and already be in canonical encoding — the file users copy
// from should round-trip byte-identically.
func TestExampleSpecIsCanonical(t *testing.T) {
	data, err := os.ReadFile("../../examples/pcap-vs-timeout.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, data) {
		t.Fatalf("examples/pcap-vs-timeout.json is not canonical; want:\n%s", enc)
	}
	if s.App != "xemacs" || s.Candidate != "pcap" || s.Baseline != "tp" {
		t.Fatalf("example spec targets %s: %s vs %s", s.App, s.Candidate, s.Baseline)
	}
}

func TestDeviceByName(t *testing.T) {
	if _, ok := DeviceByName("generic 802.11 interface"); !ok {
		t.Error("WLAN device not found by exact name")
	}
	if _, ok := DeviceByName("GENERIC 802.11 INTERFACE"); !ok {
		t.Error("device lookup is not case-insensitive")
	}
	if _, ok := DeviceByName("floppy"); ok {
		t.Error("unknown device resolved")
	}
}

func TestMetricNamesSorted(t *testing.T) {
	names := MetricNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("metric registry not sorted: %q before %q", names[i-1], names[i])
		}
	}
}

func FuzzExperimentSpec(f *testing.F) {
	f.Add([]byte(validSpec))
	f.Add([]byte(`{"name":"n","hypothesis":"h","app":"mozilla","candidate":"lt","baseline":"base","seed":7,"scale":2,"device":"generic 2.5\" mobile disk","criteria":[{"metric":"wakeups","op":"<","value":100,"tolerance":0}]}`))
	f.Add([]byte(`{"name":"n","hypothesis":"h","app":"impress","candidate":"ideal","baseline":"pcapa","criteria":[{"metric":"hit_pct","op":"==","value":80,"tolerance":5}],"counterfactual":{"flip":"index","index":3,"topn":1}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"name":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // arbitrary bytes must error cleanly, never panic
		}
		e1, err := s.Encode()
		if err != nil {
			t.Fatalf("valid spec failed to encode: %v", err)
		}
		s2, err := Parse(e1)
		if err != nil {
			t.Fatalf("canonical encoding failed to re-parse: %v\n%s", err, e1)
		}
		e2, err := s2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("encode→decode→encode is not byte-identical:\n%s\nvs\n%s", e1, e2)
		}
	})
}
