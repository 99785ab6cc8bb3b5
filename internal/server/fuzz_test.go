package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"tcam/internal/testfixture"
)

// FuzzQueryBodies drives the two body-reading doors through the real
// handlers with arbitrary bytes. Hostile input is the caller's error:
// the answer is 200, 400, 404 or 413, never a 5xx — which is also what a
// panic contained by api.Contain would be — and always JSON, and only a
// body that is exactly one JSON value is answered 200. A cached
// server, asked twice so the second answer can be a hit, says byte for
// byte what an uncached one says. Seeds are golden_test.go's bodies.
func FuzzQueryBodies(f *testing.F) {
	for _, seed := range []string{
		`{"queries":[{"user":"user-2","time":115,"k":2},{"user":"nobody","time":1},{"user":"user-2","time":125,"k":2,"exclude":["c++","item-6","c++"]}]}`,
		`{"user":"user-2","time":115,"k":3,"exclude":["c++"]}`,
		`{"user":"user-2","time":115}xyz`,
		`{"user":"user-2","time":115} {"user":"user-3","time":115}`,
		`{"queries":[{"user":"user-1","time":1e3,"k":-1}]}`,
		`{"queries":null}`,
		`[]`,
		``,
	} {
		f.Add(true, []byte(seed))
		f.Add(false, []byte(seed))
	}
	b := testfixture.Serving(f)
	logs := slog.New(slog.NewTextHandler(io.Discard, nil))
	cached, err := New(b, WithCache(64), WithLogger(logs))
	if err != nil {
		f.Fatal(err)
	}
	plain, err := New(b, WithLogger(logs))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		target := "/shard/query"
		if batch {
			target = "/recommend/batch"
		}
		post := func(srv *Server) *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
			return w
		}
		want := post(plain)
		switch want.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("POST %s %q answered %d: %s", target, body, want.Code, want.Body)
		}
		if want.Code == http.StatusOK && !json.Valid(body) {
			t.Fatalf("POST %s accepted %q, which is not one JSON value: %s", target, body, want.Body)
		}
		if !json.Valid(want.Body.Bytes()) {
			t.Fatalf("POST %s %q answered %d with a body that is not JSON: %s", target, body, want.Code, want.Body)
		}
		for round := 0; round < 2; round++ {
			if got := post(cached); got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Fatalf("POST %s %q, cached round %d: %d %s, uncached %d %s",
					target, body, round, got.Code, got.Body, want.Code, want.Body)
			}
		}
	})
}
