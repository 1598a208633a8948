package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServerHammer is the subsystem's -race test: many concurrent clients
// mixing every endpoint against one registry while an admin goroutine loads
// tables, re-registers queries and rebuilds (snapshot swaps), and an update
// goroutine mutates the dynamic entry. It asserts no data races (the test's
// reason to exist), no unexpected statuses, and valid JSON throughout.
func TestServerHammer(t *testing.T) {
	s, reg := newTestServer(t, Config{CursorTTL: time.Minute})

	const (
		clients = 6
		ops     = 150
	)
	allowed := map[int]bool{200: true, 400: true, 404: true, 409: true, 501: true}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			queries := []string{"Q", "U", "D"}
			var cursor string
			for i := 0; i < ops; i++ {
				q := queries[rng.Intn(len(queries))]
				var raw []byte
				var status int
				switch rng.Intn(10) {
				case 0:
					raw, status = doRaw(s, "GET", "/v1/"+q+"/count", "")
				case 1:
					raw, status = doRaw(s, "GET", fmt.Sprintf("/v1/%s/access?j=%d", q, rng.Intn(12)), "")
				case 2:
					raw, status = doRaw(s, "POST", "/v1/"+q+"/batch", `{"js":[0,1,2,1]}`)
				case 3:
					raw, status = doRaw(s, "GET", fmt.Sprintf("/v1/%s/page?offset=%d&limit=3", q, rng.Intn(8)), "")
				case 4:
					raw, status = doRaw(s, "GET", fmt.Sprintf("/v1/%s/sample?k=2&seed=%d", q, rng.Int63()), "")
				case 5:
					raw, status = doRaw(s, "POST", "/v1/"+q+"/contains", `{"tuple":["1","2"]}`)
					if q == "Q" {
						raw, status = doRaw(s, "POST", "/v1/"+q+"/contains", `{"tuple":["1","2","x"]}`)
					}
				case 6:
					if raw, status = doRaw(s, "GET", "/metrics", ""); status != 200 {
						t.Errorf("client %d op %d: /metrics status %d body %s", id, i, status, raw)
						return
					}
				case 7:
					// Cursor lifecycle: start one, drain a little, maybe close.
					if cursor == "" {
						var m map[string]any
						raw, status = doRaw(s, "POST", "/v1/Q/enum/start?order=random&seed=1", "")
						if status == 200 && json.Unmarshal(raw, &m) == nil {
							cursor = m["cursor"].(string)
						}
					} else {
						raw, status = doRaw(s, "GET", "/v1/Q/enum/next?cursor="+cursor+"&n=2", "")
						var m map[string]any
						if json.Unmarshal(raw, &m) == nil && m["done"] == true {
							cursor = ""
						}
						if rng.Intn(4) == 0 && cursor != "" {
							doRaw(s, "DELETE", "/v1/Q/enum?cursor="+cursor, "")
							cursor = ""
						}
					}
				case 8:
					raw, status = doRaw(s, "GET", "/v1/"+q, "")
				default:
					val := fmt.Sprint(rng.Intn(20))
					op := "insert"
					if rng.Intn(2) == 0 {
						op = "delete"
					}
					raw, status = doRaw(s, "POST", "/v1/D/update",
						fmt.Sprintf(`{"op":%q,"relation":"r","tuple":[%q,%q]}`, op, val, val))
				}
				if status != 0 && !allowed[status] {
					t.Errorf("client %d op %d: status %d body %s", id, i, status, raw)
					return
				}
			}
		}(c)
	}

	// Admin churn: loads, re-registrations and rebuilds force snapshot swaps
	// under the probe traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			csv := fmt.Sprintf(`{"name":"t%d","csv":"u,v\n1,%d\n"}`, i%3, i)
			if raw, status := doRaw(s, "POST", "/admin/load", csv); status != 200 {
				t.Errorf("admin load: %d %s", status, raw)
				return
			}
			if raw, status := doRaw(s, "POST", "/admin/register", `{"program":"`+joinQ+` `+unionQ+`"}`); status != 200 {
				t.Errorf("admin register: %d %s", status, raw)
				return
			}
			if raw, status := doRaw(s, "POST", "/admin/rebuild", ""); status != 200 {
				t.Errorf("admin rebuild: %d %s", status, raw)
				return
			}
		}
	}()

	wg.Wait()

	// The registry must still serve a coherent snapshot.
	if _, gen := reg.Snapshot(); gen == 0 {
		t.Fatal("no snapshot swaps happened")
	}
	m := do(t, s, "GET", "/v1/Q/count", "", 200)
	if m["count"] == nil {
		t.Fatal("post-hammer count missing")
	}
	text := promText(t, s)
	if !strings.Contains(text, "\nrenum_http_requests_total{endpoint=\"access\"} ") {
		t.Fatalf("post-hammer metrics missing the access series\n%s", grepLines(text, "renum_http_requests_total"))
	}
}

// TestRebuildKeepsOldSnapshotCoherent pins the swap semantics directly: an
// entry captured before a rebuild keeps answering from its own generation.
func TestRebuildKeepsOldSnapshotCoherent(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	old, _ := reg.Lookup("Q")
	oldCount := old.Count()
	oldFirst, err := old.H.Access(0)
	if err != nil {
		t.Fatal(err)
	}

	// Grow r and rebuild: the registry serves a new generation...
	do(t, s, "POST", "/admin/load", `{"name":"r","csv":"a,b\n1,2\n1,3\n2,3\n3,1\n7,3\n"}`, 200)
	do(t, s, "POST", "/admin/rebuild", "", 200)
	fresh, _ := reg.Lookup("Q")
	if fresh == old {
		t.Fatal("rebuild did not replace the entry")
	}
	if fresh.Count() <= oldCount {
		t.Fatalf("rebuilt count = %d, want > %d", fresh.Count(), oldCount)
	}

	// ...while the captured entry still answers exactly as before.
	if old.Count() != oldCount {
		t.Fatalf("old snapshot count changed: %d", old.Count())
	}
	gotFirst, err := old.H.Access(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range oldFirst {
		if gotFirst[i] != oldFirst[i] {
			t.Fatalf("old snapshot answer changed: %v vs %v", gotFirst, oldFirst)
		}
	}
}

// TestConcurrentAccessMatchesSerial: concurrent /access requests each get
// exactly their own tuple, byte-identical to the serial response — on the
// static CQ, the union and the dynamic entry, through the mux and a fast-loop
// socket at once. Every /access renders from the request's pooled scratch row
// (enc.rowFor); a row shared between two in-flight requests would show up
// here as a foreign tuple (and under -race as the write it is).
func TestConcurrentAccessMatchesSerial(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	_, addr := startFast(t, s)

	// The serial reference: every position of every entry, one at a time.
	type probe struct {
		target string
		want   []byte
	}
	var probes []probe
	for _, q := range []string{"Q", "U", "D"} {
		e, _ := reg.Lookup(q)
		for j := int64(0); j < e.Count(); j++ {
			target := fmt.Sprintf("/v1/%s/access?j=%d", q, j)
			body, status := doRaw(s, "GET", target, "")
			if status != 200 {
				t.Fatalf("serial %s = %d (%s)", target, status, body)
			}
			probes = append(probes, probe{target, body})
		}
	}

	tr := &http.Transport{MaxIdleConnsPerHost: 8}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	transports := map[string]func(target string) ([]byte, int, error){
		"mux": func(target string) ([]byte, int, error) {
			body, status := doRaw(s, "GET", target, "")
			return body, status, nil
		},
		"fastloop": func(target string) ([]byte, int, error) {
			resp, err := client.Get("http://" + addr + target)
			if err != nil {
				return nil, 0, err
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			return body, resp.StatusCode, err
		},
	}

	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	for name, get := range transports {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for r := 0; r < rounds; r++ {
					for _, i := range rng.Perm(len(probes)) {
						p := probes[i]
						got, status, err := get(p.target)
						if err != nil || status != 200 || !bytes.Equal(got, p.want) {
							t.Errorf("%s worker %d: %s = %d %q (err %v), serial response was %q",
								name, w, p.target, status, got, err, p.want)
							return
						}
					}
				}
			}()
		}
	}
	wg.Wait()
}
