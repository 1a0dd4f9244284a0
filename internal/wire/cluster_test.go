package wire

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"

	"repro/internal/keyspace"
)

// testHandoffSubscribe builds a representative valid subscribe; shared
// with repl_test.go's dispatch, fuzz, and truncation coverage.
func testHandoffSubscribe() HandoffSubscribe {
	h := HandoffSubscribe{Window: 32, NodeID: "node-b", Addr: "127.0.0.1:9102"}
	h.Slots.Add(0)
	h.Slots.Add(17)
	h.Slots.Add(keyspace.NumSlots - 1)
	return h
}

func TestHandoffSubscribeRoundTrip(t *testing.T) {
	in := testHandoffSubscribe()
	got, err := DecodeHandoffSubscribe(EncodeHandoffSubscribe(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Slots != in.Slots || got.Window != in.Window || got.NodeID != in.NodeID || got.Addr != in.Addr {
		t.Fatalf("round trip = %+v, want %+v", got, in)
	}

	empty := in
	empty.Slots = keyspace.SlotSet{}
	if _, err := DecodeHandoffSubscribe(EncodeHandoffSubscribe(empty)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty slot set accepted: %v", err)
	}
	noWindow := in
	noWindow.Window = 0
	if _, err := DecodeHandoffSubscribe(EncodeHandoffSubscribe(noWindow)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("window 0 accepted: %v", err)
	}
	bigWindow := in
	bigWindow.Window = MaxStreamCredit + 1
	if _, err := DecodeHandoffSubscribe(EncodeHandoffSubscribe(bigWindow)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized window accepted: %v", err)
	}
	noNode := in
	noNode.NodeID = ""
	if _, err := DecodeHandoffSubscribe(EncodeHandoffSubscribe(noNode)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty node id accepted: %v", err)
	}
	noAddr := in
	noAddr.Addr = ""
	if _, err := DecodeHandoffSubscribe(EncodeHandoffSubscribe(noAddr)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty addr accepted: %v", err)
	}
	longID := in
	for len(longID.NodeID) <= maxHandoffString {
		longID.NodeID += "x"
	}
	if _, err := DecodeHandoffSubscribe(EncodeHandoffSubscribe(longID)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized node id accepted: %v", err)
	}
}

func TestHandoffCommitRoundTrip(t *testing.T) {
	got, err := DecodeHandoffCommit(EncodeHandoffCommit(HandoffCommit{LSN: 9001, Epoch: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 9001 || got.Epoch != 4 {
		t.Fatalf("round trip = %+v", got)
	}
	// LSN 0 is legal (the source log held nothing for the moving slots);
	// epoch 0 is not (epochs start at 1).
	if _, err := DecodeHandoffCommit(EncodeHandoffCommit(HandoffCommit{LSN: 0, Epoch: 1})); err != nil {
		t.Fatalf("lsn 0 rejected: %v", err)
	}
	if _, err := DecodeHandoffCommit(EncodeHandoffCommit(HandoffCommit{LSN: 1, Epoch: 0})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("epoch 0 accepted: %v", err)
	}
	// The handoff kinds must not cross-decode.
	if _, err := DecodeHandoffCommit(EncodeHandoffSubscribe(testHandoffSubscribe())); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("subscribe decoded as commit: %v", err)
	}
}

func TestTopologyValidate(t *testing.T) {
	slots := make([]string, keyspace.NumSlots)
	for i := range slots {
		if i%2 == 0 {
			slots[i] = "a"
		} else {
			slots[i] = "b"
		}
	}
	topo := Topology{
		Epoch:  1,
		NodeID: "a",
		Nodes:  map[string]string{"a": "127.0.0.1:9101", "b": "127.0.0.1:9102"},
		Slots:  slots,
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		mutate func(*Topology)
	}{
		{"epoch 0", func(t *Topology) { t.Epoch = 0 }},
		{"short slot vector", func(t *Topology) { t.Slots = t.Slots[:100] }},
		{"slot owned by unknown node", func(t *Topology) { t.Slots[7] = "ghost" }},
		{"empty address", func(t *Topology) { t.Nodes["b"] = "" }},
		{"URL address", func(t *Topology) { t.Nodes["a"] = "http://x:1/" }},
		{"address without port", func(t *Topology) { t.Nodes["b"] = "127.0.0.1" }},
		{"empty node id", func(t *Topology) { t.Nodes[""] = "127.0.0.1:9103" }},
	} {
		bad := topo
		bad.Nodes = map[string]string{"a": "127.0.0.1:9101", "b": "127.0.0.1:9102"}
		bad.Slots = append([]string(nil), slots...)
		tc.mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// FuzzTopology feeds arbitrary JSON to Validate. Whatever it accepts must
// route: every slot owner names a node whose address splits as host:port,
// and the re-encoded map validates again. A valid input is kilobytes (one
// owner per slot), so run it with a bounded -fuzzminimizetime (e.g. 100x):
// the default 60 s spent minimizing each new input eats a short budget.
func FuzzTopology(f *testing.F) {
	owners := func(ids ...string) string {
		slots := make([]string, keyspace.NumSlots)
		for i := range slots {
			slots[i] = `"` + ids[i%len(ids)] + `"`
		}
		return "[" + strings.Join(slots, ",") + "]"
	}
	f.Add([]byte(`{"epoch":1,"node_id":"a","nodes":{"a":"127.0.0.1:9101","b":"[::1]:9102"},"slots":` + owners("a", "b") + `}`))
	f.Add([]byte(`{"epoch":3,"node_id":"a","nodes":{"a":"localhost:1"},"slots":` + owners("a") + `}`))
	f.Add([]byte(`{"epoch":1,"node_id":"a","nodes":{"a":"http://x:1/"},"slots":` + owners("a") + `}`))
	f.Add([]byte(`{"epoch":1,"node_id":"","nodes":{"":"127.0.0.1:1"},"slots":` + owners("") + `}`))
	f.Add([]byte(`{"epoch":0,"nodes":{},"slots":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var topo Topology
		if json.Unmarshal(data, &topo) != nil || topo.Validate() != nil {
			return
		}
		for i, owner := range topo.Slots {
			addr, ok := topo.Nodes[owner]
			if !ok {
				t.Fatalf("slot %d owner %q has no address", i, owner)
			}
			if _, _, err := net.SplitHostPort(addr); err != nil {
				t.Fatalf("slot %d owner %q address %q is not host:port: %v", i, owner, addr, err)
			}
		}
		raw, err := json.Marshal(topo)
		if err != nil {
			t.Fatalf("re-encoding an accepted topology: %v", err)
		}
		var again Topology
		if err := json.Unmarshal(raw, &again); err != nil {
			t.Fatalf("decoding the re-encoded topology: %v", err)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("re-encoded topology no longer validates: %v", err)
		}
	})
}
