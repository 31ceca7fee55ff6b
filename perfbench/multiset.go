package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// matchKey canonicalises one match line for multiset comparison: the
// window bounds plus, per variable in name order, the set of bound
// events (by stream sequence and time). Two lines denote the same
// match exactly when their bindings are equal as sets, whatever the
// order the encoder listed them in.
func matchKey(line []byte) (string, error) {
	var m struct {
		First    int64 `json:"first"`
		Last     int64 `json:"last"`
		Bindings []struct {
			Var    string `json:"var"`
			Events []struct {
				Seq  int64 `json:"seq"`
				Time int64 `json:"time"`
			} `json:"events"`
		} `json:"bindings"`
	}
	if err := json.Unmarshal(line, &m); err != nil {
		return "", fmt.Errorf("match line: %w", err)
	}
	sort.Slice(m.Bindings, func(i, j int) bool { return m.Bindings[i].Var < m.Bindings[j].Var })
	var b strings.Builder
	fmt.Fprintf(&b, "%d-%d", m.First, m.Last)
	for _, bd := range m.Bindings {
		evs := bd.Events
		sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
		b.WriteString(" " + bd.Var + ":")
		for i, e := range evs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(e.Seq, 10) + "@" + strconv.FormatInt(e.Time, 10))
		}
	}
	return b.String(), nil
}

// diff compares two multisets of match lines and returns the keys
// missing from got and the keys got has in excess, each sorted.
// Unparseable lines in got count as extra.
func diff(want, got [][]byte) (missing, extra []string, err error) {
	counts := make(map[string]int)
	for _, l := range want {
		k, err := matchKey(l)
		if err != nil {
			return nil, nil, err
		}
		counts[k]++
	}
	for _, l := range got {
		k, err := matchKey(l)
		if err != nil {
			extra = append(extra, string(l))
			continue
		}
		counts[k]--
	}
	for k, n := range counts {
		for ; n > 0; n-- {
			missing = append(missing, k)
		}
		for ; n < 0; n++ {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return missing, extra, nil
}
