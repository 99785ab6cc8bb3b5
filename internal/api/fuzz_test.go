package api

import (
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// FuzzQueryParseForm: whatever bytes arrive as a GET form, ParseForm
// and Normalize never panic and fail only with the two errors they
// document; and a query ParseForm produced travels intact — rendered by
// Form (how client.Recommend builds its request) it parses back equal,
// for every id the form can express. Seeds are the forms golden_test.go
// and TestSameErrorEveryDoor send.
func FuzzQueryParseForm(f *testing.F) {
	for _, seed := range []string{
		"user=user-2&time=115&k=3&exclude=item-6,bogus",
		"user=user-2&time=115&k=12&exclude=c%2B%2B,100%2541",
		"user=user-5&time=9999",
		"user=user-1&time=100&k=abc",
		"user=user-1&time=100&k=0",
		"user=user-1&time=100&k=99999",
		"user=user-1&time=abc",
		"user=user-1",
		"user=u&time=7&exclude=,a,,b,,",
		"user=a+b&time=-5&exclude=%2C",
		"user=%ff&time=1;k=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		form, _ := url.ParseQuery(raw) // a door parses with URL.Query, which keeps what did parse
		var q Query
		if err := q.ParseForm(form); err != nil {
			if err != errBadTime && err != errBadK {
				t.Fatalf("ParseForm(%q) failed with undocumented %#v", raw, err)
			}
			return
		}
		for _, id := range q.Exclude {
			if id == "" {
				t.Fatalf("ParseForm(%q) kept an empty exclude id: %q", raw, q.Exclude)
			}
			if strings.Contains(id, ",") {
				t.Fatalf("ParseForm(%q) produced an id the form cannot express: %q", raw, id)
			}
		}
		again, err := url.ParseQuery(q.Form())
		if err != nil {
			t.Fatalf("Form() of %+v is not a form: %v", q, err)
		}
		var back Query
		if err := back.ParseForm(again); err != nil {
			t.Fatalf("Form() of %+v does not parse back: %v", q, err)
		}
		if !reflect.DeepEqual(q, back) {
			t.Fatalf("%q parsed to %+v but travels as %q, which parses to %+v", raw, q, q.Form(), back)
		}
		switch err := q.Normalize(); {
		case err != nil && err != errBadK:
			t.Fatalf("Normalize(%+v) failed with undocumented %#v", q, err)
		case err == nil && (q.K < 1 || q.K > MaxK):
			t.Fatalf("Normalize accepted k=%d", q.K)
		}
	})
}
