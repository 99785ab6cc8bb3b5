package api

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"
)

func TestParseForm(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want Query
		err  error
	}{
		{"user=u&time=-5", Query{User: "u", Time: -5, Exclude: []string{}}, nil},
		// An empty id names no item, wherever it stands in the list.
		{"user=u&time=7&k=3&exclude=,a,,b,,", Query{User: "u", Time: 7, K: 3, Exclude: []string{"a", "b"}}, nil},
		// Decoded exactly once: "+" and "%41" in a name survive.
		{"user=a+b&time=1&exclude=c%2B%2B,100%2541", Query{User: "a b", Time: 1, Exclude: []string{"c++", "100%41"}}, nil},
		{"user=u&time=1&k=5000", Query{User: "u", Time: 1, K: 5000, Exclude: []string{}}, nil}, // Normalize's to reject
		{"user=u", Query{}, errBadTime},
		{"user=u&time=1.5", Query{}, errBadTime},
		{"user=u&time=1&k=0", Query{}, errBadK},
		{"user=u&time=1&k=-2", Query{}, errBadK},
		{"user=u&time=1&k=ten", Query{}, errBadK},
	} {
		form, err := url.ParseQuery(tc.raw)
		if err != nil {
			t.Fatal(err)
		}
		q := Query{User: "stale", K: 9, Exclude: []string{"stale", "stale"}}
		if err := q.ParseForm(form); err != tc.err {
			t.Errorf("%s: err = %v, want %v", tc.raw, err, tc.err)
		} else if err == nil && !reflect.DeepEqual(q, tc.want) {
			t.Errorf("%s: parsed %+v, want %+v", tc.raw, q, tc.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	for k, want := range map[int]int{0: DefaultK, 1: 1, MaxK: MaxK} {
		q := Query{K: k}
		if err := q.Normalize(); err != nil || q.K != want {
			t.Errorf("k=%d: normalized to %d, %v; want %d", k, q.K, err, want)
		}
	}
	for _, k := range []int{-1, MaxK + 1} {
		q := Query{K: k}
		if err := q.Normalize(); err != errBadK {
			t.Errorf("k=%d: err = %v, want %v", k, err, errBadK)
		}
	}
}

// The encoder pool is shared by every handler of every server in the
// process: concurrent writers must each get their own bytes (run under
// -race).
func TestWriteJSONConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := httptest.NewRecorder()
				want := fmt.Sprintf("{\"lo\":%d,\"hi\":%d}\n", g, i)
				if g%2 == 0 {
					WriteJSON(w, http.StatusOK, Range{Lo: g, Hi: i})
				} else {
					Fail(w, Errorf(http.StatusNotFound, "no %d/%d", g, i), http.StatusInternalServerError)
					want = fmt.Sprintf("{\"error\":\"no %d/%d\"}\n", g, i)
				}
				if got := w.Body.String(); got != want || (w.Code == http.StatusOK) != (g%2 == 0) {
					t.Errorf("writer %d: %d %q, want %q", g, w.Code, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
