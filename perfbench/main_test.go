package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

// The result line's metrics hold exactly a value and a unit, and every value
// is written as a float, a whole one too.
func TestResultLineShape(t *testing.T) {
	line, err := json.Marshal(newResult(0, 3, map[string]metric{
		"ok_ratio":    {Value: 1, Unit: "ratio", N: 3},
		"main_p50_ms": {Value: 12.5, Unit: "ms", N: 40},
		"tiny":        {Value: 1e-9, Unit: "s"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]map[string]json.RawMessage
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"ok_ratio": "1.0", "main_p50_ms": "12.5", "tiny": "1e-09"}
	for name, v := range want {
		m := got.Metrics[name]
		if len(m) != 2 || m["unit"] == nil {
			t.Errorf("%s: keys %v, want exactly value and unit", name, reflect.ValueOf(m).MapKeys())
		}
		if string(m["value"]) != v {
			t.Errorf("%s: value %s, want %s", name, m["value"], v)
		}
	}
	if !got.Correct || got.Attempted != 3 || got.Failed != 0 {
		t.Errorf("header %+v", got)
	}
}
