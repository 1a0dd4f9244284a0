package main

import (
	"strings"
	"testing"
)

func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     map[string]string
		err      string // substring of the error; empty means success
	}{
		{name: "empty", in: "", want: nil},
		{name: "pairs", in: "a=127.0.0.1:1, b=h:2",
			want: map[string]string{"a": "127.0.0.1:1", "b": "h:2"}},
		{name: "duplicate id", in: "a=h1:1,a=h2:2", err: `node "a" twice`},
		{name: "duplicate id, same address", in: "a=h:1,b=h:2,a=h:1", err: `node "a" twice`},
		{name: "missing =", in: "a=h:1,bh:2", err: "not id=host:port"},
		{name: "empty id", in: "=h:1", err: "not id=host:port"},
		{name: "empty address", in: "a=", err: "not id=host:port"},
		{name: "port-less address", in: "a=h", err: "missing port"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parsePeers(tc.in)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("parsePeers(%q) = %v, %v; want an error containing %q", tc.in, got, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("parsePeers(%q): %v", tc.in, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("parsePeers(%q) = %v, want %v", tc.in, got, tc.want)
			}
			for id, addr := range tc.want {
				if got[id] != addr {
					t.Fatalf("parsePeers(%q) = %v, want %v", tc.in, got, tc.want)
				}
			}
		})
	}
}

func TestAdvertisedAddr(t *testing.T) {
	for _, tc := range []struct {
		explicit, listen, want string
		err                    bool
	}{
		{listen: ":8372", want: "127.0.0.1:8372"},
		{listen: "0.0.0.0:1", want: "127.0.0.1:1"},
		{listen: "[::]:1", want: "127.0.0.1:1"},
		{listen: "10.0.0.7:9", want: "10.0.0.7:9"},
		{explicit: "node-a.internal:8372", listen: ":1", want: "node-a.internal:8372"},
		{explicit: "node-a.internal", listen: ":1", err: true},
		{listen: "8372", err: true},
	} {
		got, err := advertisedAddr(tc.explicit, tc.listen)
		if tc.err {
			if err == nil {
				t.Errorf("advertisedAddr(%q, %q) = %q, want an error", tc.explicit, tc.listen, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("advertisedAddr(%q, %q) = %q, %v; want %q", tc.explicit, tc.listen, got, err, tc.want)
		}
	}
}

// TestRunRefusesFlagConflicts: every refused flag combination fails before
// anything is opened or bound.
func TestRunRefusesFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		cfg  config
		want string
	}{
		{config{addr: ":0", peers: "a=h:1"}, "need -node-id"},
		{config{addr: ":0", clusterAddr: "h:1"}, "need -node-id"},
		{config{addr: ":0", nodeID: "a", follow: "h:1", data: "d"}, "mutually exclusive"},
		{config{addr: ":0", nodeID: "a", peers: "a=h:1,a=h:2"}, "twice"},
		{config{addr: ":0", follow: "h:1"}, "-follow requires -data"},
	} {
		err := run(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%+v) = %v, want an error containing %q", tc.cfg, err, tc.want)
		}
	}
}
