package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
)

// verifyDurable reads back every document a write of the run touched,
// after the server was killed with SIGKILL and restarted on the same
// directory. A document must hold one of the versions that could be
// the last one applied: the last acknowledged write, or a write whose
// outcome is unknown (transport error) and that was not followed by an
// acknowledged one. It also checks that no document appeared or
// vanished. It returns the ids that failed the check.
func verifyDurable(base string, phases []*phase, preloaded int) ([]string, error) {
	byID := map[string][]*writeRec{}
	for _, ph := range phases {
		for i := range ph.ops {
			if w := ph.ops[i].write; w != nil {
				byID[w.id] = append(byID[w.id], w)
			}
		}
	}
	ids := make([]string, 0, len(byID))
	accept := map[string]map[uint64]bool{}
	fresh, freshUnknown := 0, 0
	for id, ws := range byID {
		ok := map[uint64]bool{}
		for _, w := range ws {
			if !w.acked && !w.unknown {
				continue
			}
			superseded := false
			for _, w2 := range ws {
				if w2.acked && w2.sent.After(w.done) {
					superseded = true
					break
				}
			}
			if !superseded {
				ok[w.sig] = true
			}
		}
		if len(ok) == 0 {
			continue // every write of it was refused: nothing to check
		}
		ids = append(ids, id)
		accept[id] = ok
		if ws[0].variant == "v0" { // a document new to the store
			if anyAcked(ws) {
				fresh++
			} else {
				freshUnknown++
			}
		}
	}
	sort.Strings(ids)

	var (
		mu   sync.Mutex
		lost []string
		errs []error
		wg   sync.WaitGroup
	)
	cs := newClients(base, 2)
	defer closeClients(cs)
	for k, c := range cs {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for i := k; i < len(ids); i += len(cs) {
				id := ids[i]
				status, body, err := c.do("GET", docPath(id), nil, "")
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				sig, perr := readSignature(body)
				if status != http.StatusOK || perr != nil || !accept[id][sig] {
					mu.Lock()
					lost = append(lost, id)
					mu.Unlock()
				}
			}
		}(k, c)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, fmt.Errorf("reading back: %v", errs[0])
	}
	n, err := documentCount(base)
	if err != nil {
		return nil, err
	}
	if lo := preloaded + fresh; n < lo || n > lo+freshUnknown {
		lost = append(lost, fmt.Sprintf("document count %d, want %d..%d", n, lo, lo+freshUnknown))
	}
	sort.Strings(lost)
	return lost, nil
}

func anyAcked(ws []*writeRec) bool {
	for _, w := range ws {
		if w.acked {
			return true
		}
	}
	return false
}

// readSignature computes the element signature of a stored document.
func readSignature(body []byte) (uint64, error) {
	type elem struct {
		Variant *string `json:"provml:variant"`
	}
	var doc struct {
		Entity   map[string]elem `json:"entity"`
		Activity map[string]elem `json:"activity"`
		Agent    map[string]elem `json:"agent"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, err
	}
	var ids []string
	variant := ""
	for _, sec := range []map[string]elem{doc.Entity, doc.Activity, doc.Agent} {
		for id, e := range sec {
			ids = append(ids, id)
			if e.Variant != nil {
				variant = *e.Variant
			}
		}
	}
	return elementSignature(ids, variant), nil
}

func documentCount(base string) (int, error) {
	resp, err := http.Get(base + "/api/v0/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Documents int
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	return st.Documents, nil
}
