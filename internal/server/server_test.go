package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tcam/internal/api"
	"tcam/internal/index"
	"tcam/internal/testfixture"
)

func testServer(tb testing.TB) (*Server, *index.Bundle) {
	tb.Helper()
	bundle := testfixture.Bundle(tb, 6, 12)
	srv, err := New(bundle)
	if err != nil {
		tb.Fatal(err)
	}
	return srv, bundle
}

func get(t *testing.T, srv *Server, path string) (*http.Response, []byte) {
	t.Helper()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [1 << 16]byte
	n, _ := resp.Body.Read(buf[:])
	return resp, buf[:n]
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h api.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Users != 6 || h.Items != 12 || h.Intervals != 3 || h.Topics != 7 {
		t.Errorf("health = %+v", h)
	}
}

func TestRecommend(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := get(t, srv, "/recommend?user=user-2&time=115&k=4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r api.RecommendResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Interval != 1 {
		t.Errorf("interval = %d, want 1 (time 115 on grid origin 100/len 10)", r.Interval)
	}
	if len(r.Recommendations) != 4 {
		t.Fatalf("got %d recommendations", len(r.Recommendations))
	}
	for i := 1; i < len(r.Recommendations); i++ {
		if r.Recommendations[i].Score > r.Recommendations[i-1].Score {
			t.Error("recommendations not sorted")
		}
	}
	if r.ItemsExamined <= 0 {
		t.Error("items examined not reported")
	}
}

func TestRecommendExclude(t *testing.T) {
	srv, _ := testServer(t)
	_, body := get(t, srv, "/recommend?user=user-2&time=115&k=3")
	var base api.RecommendResponse
	if err := json.Unmarshal(body, &base); err != nil {
		t.Fatal(err)
	}
	first := base.Recommendations[0].Item
	_, body = get(t, srv, "/recommend?user=user-2&time=115&k=3&exclude="+first+",bogus")
	var filtered api.RecommendResponse
	if err := json.Unmarshal(body, &filtered); err != nil {
		t.Fatal(err)
	}
	for _, rec := range filtered.Recommendations {
		if rec.Item == first {
			t.Error("excluded item recommended")
		}
	}
}

// The exclude filter's pooled scratch must behave identically across
// many sequential requests (epoch stamping, not per-request maps).
func TestRecommendExcludeReusedScratch(t *testing.T) {
	srv, _ := testServer(t)
	_, body := get(t, srv, "/recommend?user=user-2&time=115&k=3")
	var base api.RecommendResponse
	if err := json.Unmarshal(body, &base); err != nil {
		t.Fatal(err)
	}
	first := base.Recommendations[0].Item
	second := base.Recommendations[1].Item
	for i := 0; i < 5; i++ {
		// Alternate exclusion sets: a stale stamp from the previous
		// request must never leak into the next one.
		_, body = get(t, srv, "/recommend?user=user-2&time=115&k=3&exclude="+first)
		var r1 api.RecommendResponse
		if err := json.Unmarshal(body, &r1); err != nil {
			t.Fatal(err)
		}
		for _, rec := range r1.Recommendations {
			if rec.Item == first {
				t.Fatalf("round %d: excluded %s recommended", i, first)
			}
		}
		if r1.Recommendations[0].Item != second {
			t.Fatalf("round %d: excluding %s should promote %s, got %s",
				i, first, second, r1.Recommendations[0].Item)
		}
		_, body = get(t, srv, "/recommend?user=user-2&time=115&k=3&exclude="+second)
		var r2 api.RecommendResponse
		if err := json.Unmarshal(body, &r2); err != nil {
			t.Fatal(err)
		}
		if r2.Recommendations[0].Item != first {
			t.Fatalf("round %d: excluding %s should keep %s first, got %s",
				i, second, first, r2.Recommendations[0].Item)
		}
	}
}

func postJSON(t *testing.T, srv *Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [1 << 16]byte
	n, _ := resp.Body.Read(buf[:])
	return resp, buf[:n]
}

func TestRecommendBatch(t *testing.T) {
	srv, _ := testServer(t)
	// Single-endpoint answers are the ground truth for the batch path.
	_, body := get(t, srv, "/recommend?user=user-2&time=115&k=4")
	var single api.RecommendResponse
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, srv, "/recommend/batch",
		`{"queries":[
			{"user":"user-2","time":115,"k":4},
			{"user":"nobody","time":115,"k":4},
			{"user":"user-0","time":100},
			{"user":"user-2","time":115,"k":4,"exclude":["`+single.Recommendations[0].Item+`"]}
		]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var batch api.BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 4 {
		t.Fatalf("got %d results", len(batch.Results))
	}
	// Entry 0 must equal the single endpoint bit-for-bit.
	r0 := batch.Results[0]
	if r0.Error != "" || r0.Interval != single.Interval || len(r0.Recommendations) != len(single.Recommendations) {
		t.Fatalf("batch[0] = %+v, want %+v", r0, single)
	}
	for i := range r0.Recommendations {
		if r0.Recommendations[i] != single.Recommendations[i] {
			t.Errorf("batch[0][%d] = %+v, single %+v", i, r0.Recommendations[i], single.Recommendations[i])
		}
	}
	// Entry 1 fails individually without sinking the batch.
	if batch.Results[1].Error == "" || len(batch.Results[1].Recommendations) != 0 {
		t.Errorf("batch[1] = %+v, want per-query error", batch.Results[1])
	}
	// Entry 2 uses the default k.
	if batch.Results[2].Error != "" || len(batch.Results[2].Recommendations) != 10 {
		t.Errorf("batch[2] = %+v, want 10 default recommendations", batch.Results[2])
	}
	// Entry 3 respects its exclusion.
	for _, rec := range batch.Results[3].Recommendations {
		if rec.Item == single.Recommendations[0].Item {
			t.Error("batch exclusion ignored")
		}
	}
}

func TestRecommendBatchErrors(t *testing.T) {
	srv, _ := testServer(t)
	if resp, _ := get(t, srv, "/recommend/batch"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch: status %d, want 405", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv, "/recommend/batch", "{broken"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv, "/recommend/batch", `{"queries":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i <= maxBatchQueries; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"user":"user-1","time":1}`)
	}
	sb.WriteString(`]}`)
	if resp, _ := postJSON(t, srv, "/recommend/batch", sb.String()); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
	resp, body := postJSON(t, srv, "/recommend/batch", `{"queries":[{"user":"user-1","time":1,"k":-3}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var batch api.BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Results[0].Error == "" {
		t.Error("negative k accepted")
	}
}

func TestTopics(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := get(t, srv, "/topics/0?n=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var tr topicResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Kind != "user-oriented" || len(tr.TopItems) != 3 {
		t.Errorf("topic response = %+v", tr)
	}
	resp, body = get(t, srv, "/topics/5")
	var tr2 topicResponse
	if err := json.Unmarshal(body, &tr2); err != nil {
		t.Fatal(err)
	}
	if tr2.Kind != "time-oriented" {
		t.Errorf("topic 5 kind = %q (K1=4)", tr2.Kind)
	}
	if resp, _ := get(t, srv, "/topics/99"); resp.StatusCode != http.StatusNotFound {
		t.Error("out-of-range topic accepted")
	}
	if resp, _ := get(t, srv, "/topics/abc"); resp.StatusCode != http.StatusNotFound {
		t.Error("non-numeric topic accepted")
	}
}

func TestUserLambda(t *testing.T) {
	srv, bundle := testServer(t)
	resp, body := get(t, srv, "/users/user-3/lambda")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var lr lambdaResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Lambda != bundle.Model.Lambda(3) {
		t.Errorf("lambda = %v, want %v", lr.Lambda, bundle.Model.Lambda(3))
	}
	if resp, _ := get(t, srv, "/users/nobody/lambda"); resp.StatusCode != http.StatusNotFound {
		t.Error("unknown user accepted")
	}
	if resp, _ := get(t, srv, "/users/user-3/other"); resp.StatusCode != http.StatusNotFound {
		t.Error("unknown subresource accepted")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, path := range []string{"/healthz", "/recommend", "/topics/0", "/users/user-1/lambda"} {
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}

func TestNewRejectsBrokenBundle(t *testing.T) {
	_, bundle := testServer(t)
	bundle.Items = bundle.Items[:2]
	if _, err := New(bundle); err == nil {
		t.Error("New accepted a broken bundle")
	}
}
