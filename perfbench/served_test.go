package main

import (
	"reflect"
	"testing"
	"time"
)

// TestScheduleReproducible: the served schedule is a function of the
// seed alone, so a parent and a change receive identical requests.
func TestScheduleReproducible(t *testing.T) {
	const window = 20 * time.Second
	a, b := buildSchedule(7, window), buildSchedule(7, window)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, buildSchedule(8, window)) {
		t.Fatal("different seeds, same schedule")
	}

	hot := map[string]bool{}
	for _, p := range hotPairs() {
		hot[p.Scheme+"/"+p.Workload] = true
	}
	cold := map[string]bool{}
	for _, p := range coldPairs() {
		cold[p.Scheme+"/"+p.Workload] = true
	}
	var hits, colds int
	clients := map[string]bool{}
	seenCold := map[string]bool{}
	for i, r := range a {
		if i > 0 && r.Due < a[i-1].Due {
			t.Fatalf("request %d due before its predecessor", i)
		}
		if r.Due < 0 || r.Due >= window {
			t.Fatalf("request %d due at %v, outside the window", i, r.Due)
		}
		clients[r.Client] = true
		if r.Cold {
			colds++
			if !cold[r.key()] || seenCold[r.key()] {
				t.Fatalf("cold request %s is primed or repeated", r.key())
			}
			seenCold[r.key()] = true
			continue
		}
		hits++
		if !hot[r.key()] {
			t.Fatalf("hit request %s is not a primed key", r.key())
		}
	}
	if hits != int(hitRate*window.Seconds()) || colds != int(coldRate*window.Seconds()) {
		t.Errorf("%d hits and %d cold requests", hits, colds)
	}
	if len(clients) != servedClients {
		t.Errorf("%d clients, want %d", len(clients), servedClients)
	}
	if len(hot) != 33 || len(cold) != 88 {
		t.Errorf("%d hot and %d cold keys, want 33 and 88", len(hot), len(cold))
	}
}

// TestScheduleCapsColdKeys: a window longer than the cold keys last
// never repeats one.
func TestScheduleCapsColdKeys(t *testing.T) {
	var colds int
	for _, r := range buildSchedule(1, 60*time.Second) {
		if r.Cold {
			colds++
		}
	}
	if colds != len(coldPairs()) {
		t.Errorf("%d cold requests, want every cold key once (%d)", colds, len(coldPairs()))
	}
}
