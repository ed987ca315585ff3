package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"marchgen/internal/fabric"
)

// fillClasses takes every admission slot of every request class, so a
// request that reaches admission is shed with 429 and counted in its
// class's sheds_total. The returned func gives the slots back.
func fillClasses(t *testing.T, s *Server) func() {
	t.Helper()
	taken := map[admitClass]int{}
	for _, c := range admitClasses {
		for {
			var shed *shedError
			if c == classSimulate || c == classCampaign {
				shed = s.admit.acquire(c)
			} else {
				shed = s.admit.admit(c)
			}
			if shed != nil {
				break
			}
			taken[c]++
		}
	}
	return func() {
		for c, n := range taken {
			for ; n > 0; n-- {
				if c == classSimulate || c == classCampaign {
					s.admit.release(c)
				} else {
					s.admit.finished(c, false, false)
				}
			}
		}
	}
}

// TestRequestSettingsCheckedBeforeAdmission pins where marchd refuses a
// request's settings: an unknown key anywhere inside config, options or
// generator (search_config and final_config included), a width above 64,
// ports above 2 or a size above 16 answer 400 on every entry point that
// takes them, before the request reaches admission. Every class is full
// while the requests arrive, so a request that got as far as admission
// would answer 429; none may submit a job or touch a class's counters.
func TestRequestSettingsCheckedBeforeAdmission(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	const (
		sim      = `{"march":{"name":"MATS+"},"list":"list2","config":%s}`
		detects  = `{"march":{"name":"MATS+"},"fault":{"kind":"LF1","fps":["<0w1/0/->","<0w0/1/->"]},"config":%s}`
		verify   = `{"march":{"name":"MATS+"},"list":"simple2","config":%s}`
		diagnose = `{"list":"simple2","config":%s,"observations":[{"march":{"name":"MATS+"},"syndrome":[]}]}`
		generate = `{"list":"list2","options":%s}`
		optimize = `{"list":"list2","budget":10,"generator":%s}`
	)
	cases := []struct {
		path, body, want string
	}{
		// Unknown keys, at every depth.
		{"/v1/simulate", fill(sim, `{"size":4,"bogus":1}`), `unknown field "bogus"`},
		{"/v1/simulate", fill(sim, `{"workers":2}`), `unknown field "workers"`},
		{"/v1/detects", fill(detects, `{"bogus":1}`), `unknown field "bogus"`},
		{"/v1/verify", fill(verify, `{"bogus":1}`), `unknown field "bogus"`},
		{"/v1/diagnose", fill(diagnose, `{"bogus":1}`), `unknown field "bogus"`},
		{"/v1/generate", fill(generate, `{"bogus":1}`), `unknown field "bogus"`},
		{"/v1/generate", fill(generate, `{"search_config":{"bogus":1}}`), `unknown field "bogus"`},
		{"/v1/generate", fill(generate, `{"final_config":{"workers":2}}`), `unknown field "workers"`},
		{"/v1/optimize", fill(optimize, `{"bogus":true}`), `unknown field "bogus"`},
		{"/v1/optimize", fill(optimize, `{"search_config":{"bogus":1}}`), `unknown field "bogus"`},

		// The modeled space on the four config endpoints.
		{"/v1/simulate", fill(sim, `{"width":65}`), "config.width 65"},
		{"/v1/simulate", fill(sim, `{"ports":3}`), "config.ports 3"},
		{"/v1/simulate", fill(sim, `{"size":17}`), "config.size 17"},
		{"/v1/detects", fill(detects, `{"width":100}`), "config.width 100"},
		{"/v1/detects", fill(detects, `{"ports":3}`), "config.ports 3"},
		{"/v1/verify", fill(verify, `{"width":65}`), "config.width 65"},
		{"/v1/verify", fill(verify, `{"ports":3}`), "config.ports 3"},
		{"/v1/diagnose", fill(diagnose, `{"width":100}`), "config.width 100"},
		{"/v1/diagnose", fill(diagnose, `{"ports":3}`), "config.ports 3"},

		// Generate's options and optimize's generator: their axes and
		// their search and final configs.
		{"/v1/generate", fill(generate, `{"width":65}`), "options.width 65"},
		{"/v1/generate", fill(generate, `{"ports":3}`), "options.ports 3"},
		{"/v1/generate", fill(generate, `{"search_config":{"size":17}}`), "options.search_config.size 17"},
		{"/v1/generate", fill(generate, `{"final_config":{"size":17}}`), "options.final_config.size 17"},
		{"/v1/generate", fill(generate, `{"final_config":{"size":4,"width":65}}`), "options.final_config.width 65"},
		{"/v1/generate", fill(generate, `{"search_config":{"ports":3}}`), "options.search_config.ports 3"},
		{"/v1/optimize", fill(optimize, `{"width":65}`), "generator.width 65"},
		{"/v1/optimize", fill(optimize, `{"ports":3}`), "generator.ports 3"},
		{"/v1/optimize", fill(optimize, `{"final_config":{"size":17}}`), "generator.final_config.size 17"},
	}

	release := fillClasses(t, s)
	defer release()
	// The harness: a valid request does reach admission, and is shed.
	if w := do(t, s, "POST", "/v1/simulate", fill(sim, `{"size":4}`)); w.Code != http.StatusTooManyRequests {
		t.Fatalf("valid simulate with every class full: status %d, want 429: %s", w.Code, w.Body.String())
	}
	for _, c := range cases {
		submitted := s.metrics.snapshot(0, 0).JobsSubmitted
		admission := s.admit.snapshot()
		w := do(t, s, "POST", c.path, c.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400: %s", c.path, c.body, w.Code, w.Body.String())
			continue
		}
		if msg := decode[apiError](t, w).Error; !strings.Contains(msg, c.want) {
			t.Errorf("POST %s %s: error %q does not name %q", c.path, c.body, msg, c.want)
		}
		if got := s.metrics.snapshot(0, 0).JobsSubmitted; got != submitted {
			t.Errorf("POST %s %s: jobs_submitted %d -> %d", c.path, c.body, submitted, got)
		}
		if got := s.admit.snapshot(); !reflect.DeepEqual(got, admission) {
			t.Errorf("POST %s %s: admission moved:\n%+v\n%+v", c.path, c.body, admission, got)
		}
	}
}

// fill substitutes the inner document into a request template.
func fill(template, inner string) string {
	return strings.Replace(template, "%s", inner, 1)
}

// blanks is an endless reader of JSON whitespace.
type blanks struct{}

func (blanks) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestLeadingWhitespaceIsNotBuffered: the JSON decoder keeps every byte it
// scans until a value completes, so leading whitespace must be skipped
// before it sees the body. Behind marchd's body cap, a simulate request
// after 1 MiB of spaces is served and one after 64 MiB of spaces is
// refused, and neither allocates anywhere near the whitespace it read.
func TestLeadingWhitespaceIsNotBuffered(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	h := http.MaxBytesHandler(s.Handler(), fabric.MaxBodyBytes)
	const doc = `{"march":{"name":"MATS+"},"list":"list2"}`
	for _, c := range []struct {
		pad    int64
		status int
	}{
		{1 << 20, http.StatusOK},
		{fabric.MaxBodyBytes, http.StatusBadRequest},
	} {
		body := io.MultiReader(io.LimitReader(blanks{}, c.pad), strings.NewReader(doc))
		r := httptest.NewRequest("POST", "/v1/simulate", body)
		w := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, r)
		runtime.ReadMemStats(&after)
		if w.Code != c.status {
			t.Errorf("%d bytes of leading spaces: status %d, want %d: %s", c.pad, w.Code, c.status, w.Body.String())
		}
		const limit = 8 << 20
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= limit {
			t.Errorf("%d bytes of leading spaces: %.1f MB allocated, want under %d MB",
				c.pad, float64(alloc)/1e6, limit>>20)
		}
	}
}
