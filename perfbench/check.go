package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Recorded expectations, all under perfbench/testdata and written by
// -record. A change that alters served numbers or output bytes on
// purpose re-records them in a benchmark change of its own.
const (
	table4File   = "table4_hycom.csv"   // study-slice Table 4 bytes
	tracerFile   = "tracer_hycom96.txt" // study-slice set-up output bytes
	servedFile   = "served.json"        // URL -> response body
	simstatsFile = "simstats.json"      // replay key -> simulated counts
)

func readTestdata(e *env, name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(e.testdata, name))
}

func loadJSON(e *env, name string, v any) error {
	b, err := readTestdata(e, name)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func writeJSON(e *env, name string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.testdata, name), append(b, '\n'), 0o644)
}

// checkBytes fails unless got is exactly want.
func checkBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("%s: %d output bytes differ from the %d recorded", what, len(got), len(want))
}

// checkResponse fails unless the response is a 200 whose body is
// exactly the recorded one. On a mismatch it names the first differing
// field, numbers compared bit for bit (math.Float64bits).
func checkResponse(url string, status int, body, want []byte) error {
	if status != 200 {
		return fmt.Errorf("%s: status %d", url, status)
	}
	if bytes.Equal(body, want) {
		return nil
	}
	var got, rec any
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	if err := json.Unmarshal(want, &rec); err != nil {
		return fmt.Errorf("%s: recorded body: %w", url, err)
	}
	if diff := diffJSON(got, rec, "$"); diff != "" {
		return fmt.Errorf("%s: %s", url, diff)
	}
	return fmt.Errorf("%s: body bytes differ from the recorded ones", url)
}

// diffJSON returns where two decoded JSON values first differ, or "".
func diffJSON(got, want any, path string) string {
	switch w := want.(type) {
	case float64:
		g, ok := got.(float64)
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("%s = %v, recorded %v (bits %#x)", path, got, w, math.Float64bits(w))
		}
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return fmt.Sprintf("%s: object has %d keys, recorded %d", path, len(g), len(w))
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			gv, ok := g[k]
			if !ok {
				return fmt.Sprintf("%s.%s missing", path, k)
			}
			if d := diffJSON(gv, w[k], path+"."+k); d != "" {
				return d
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Sprintf("%s: array has %d elements, recorded %d", path, len(g), len(w))
		}
		for i := range w {
			if d := diffJSON(g[i], w[i], fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	default: // string, bool, nil
		if got != want {
			return fmt.Sprintf("%s = %v, recorded %v", path, got, want)
		}
	}
	return ""
}
