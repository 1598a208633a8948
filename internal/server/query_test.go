package server

import (
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzQueryScanner holds the one query-string scanner both transports use to
// net/url: query.get must equal url.ParseQuery(raw).Get(name), and the int
// and js parses must equal strconv.ParseInt on that string, error text
// included. It is the reference for how the fast loop decodes a query.
func FuzzQueryScanner(f *testing.F) {
	for _, raw := range []string{
		"j=0", "%6a=0", "j=%zz", "j=%", "j=0;x=1", "j=0&j=1", "js=0,+1,,2", "js=0%2C1", "js=1,x",
		"limit=%32&offset=+1", "cursor=%66f&n=%31", "j=%zz&j=7", "&&j=&j=3", "=1&j=2", "j+=1&j =2",
	} {
		for _, name := range []string{"j", "js", "cursor", "n", "limit", "offset", "j ", ""} {
			f.Add(raw, name)
		}
	}
	f.Fuzz(func(t *testing.T, raw, name string) {
		vals, _ := url.ParseQuery(raw)
		want := vals.Get(name)
		var scratch []byte
		q := query{raw: []byte(raw), scratch: &scratch}
		v := q.get(name)
		if string(v) != want {
			t.Fatalf("get(%q) over %q = %q, want %q", name, raw, v, want)
		}

		got, err := q.int(name, -7)
		wantN, wantErr := int64(-7), ""
		if want != "" {
			var perr error
			if wantN, perr = strconv.ParseInt(want, 10, 64); perr != nil {
				wantN, wantErr = 0, name+": "+perr.Error()
			}
		}
		if got != wantN || errText(err) != wantErr {
			t.Fatalf("int(%q) over %q = %d, %q; want %d, %q", name, raw, got, errText(err), wantN, wantErr)
		}

		var wantJS []int64
		wantErr = ""
		for _, part := range strings.Split(vals.Get("js"), ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			j, perr := strconv.ParseInt(part, 10, 64)
			if perr != nil {
				wantErr = "js: " + perr.Error()
				break
			}
			wantJS = append(wantJS, j)
		}
		js, err := q.js(nil)
		if errText(err) != wantErr || (err == nil && !slices.Equal(js, wantJS)) {
			t.Fatalf("js over %q = %v, %q; want %v, %q", raw, js, errText(err), wantJS, wantErr)
		}
		// A request keeps what it read (a cursor id) while it reads on.
		if string(v) != want {
			t.Fatalf("get(%q) over %q became %q after later reads", name, raw, v)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
