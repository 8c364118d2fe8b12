package mqtt

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go on -race builds, where the detector's
// sync.Pool bookkeeping breaks strict zero-alloc assertions.
var raceEnabled bool

// trieMatches collects the session set the trie routes topic to.
func trieMatches(t *subTrie, topic string) map[*session]QoS {
	got := map[*session]QoS{}
	t.match(topic, func(s *session, q QoS) {
		if old, ok := got[s]; !ok || q > old {
			got[s] = q
		}
	})
	return got
}

func TestTrieBasicMatching(t *testing.T) {
	cases := []struct {
		filter string
		topic  string
		want   bool
	}{
		{"a/b/c", "a/b/c", true},
		{"a/b/c", "a/b/d", false},
		{"a/+/c", "a/b/c", true},
		{"a/+", "a", false},
		{"a/#", "a/b/c/d", true},
		{"a/#", "a", true},
		{"#", "a/b", true},
		{"+/+", "a/b", true},
		{"+", "a/b", false},
		{"meters/+/+/report", "meters/agg1/device1/report", true},
		{"meters/+/+/report", "meters/agg1/device1/control", false},
		{"#", "$SYS/broker", false},
		{"+/broker", "$SYS/broker", false},
		{"$SYS/#", "$SYS/broker", true},
		{"a//c", "a//c", true},
		{"a/+/c", "a//c", true},
	}
	for _, tc := range cases {
		trie := newSubTrie()
		s := &session{clientID: "c"}
		trie.add(tc.filter, s, QoS1)
		_, matched := trieMatches(trie, tc.topic)[s]
		if matched != tc.want {
			t.Errorf("trie add(%q) match(%q) = %v, want %v", tc.filter, tc.topic, matched, tc.want)
		}
	}
}

func TestTrieMaxQoSAcrossFilters(t *testing.T) {
	trie := newSubTrie()
	s := &session{clientID: "c"}
	trie.add("a/#", s, QoS0)
	trie.add("a/+", s, QoS2)
	trie.add("a/b", s, QoS1)
	got := trieMatches(trie, "a/b")
	if got[s] != QoS2 {
		t.Fatalf("max QoS = %v, want %v", got[s], QoS2)
	}
}

func TestTrieRemove(t *testing.T) {
	trie := newSubTrie()
	s1 := &session{clientID: "c1"}
	s2 := &session{clientID: "c2"}
	trie.add("a/+/c", s1, QoS1)
	trie.add("a/+/c", s2, QoS1)
	trie.remove("a/+/c", s1)
	got := trieMatches(trie, "a/b/c")
	if _, ok := got[s1]; ok {
		t.Fatal("removed subscription still matches")
	}
	if _, ok := got[s2]; !ok {
		t.Fatal("sibling subscription removed too")
	}
	// Removing an unknown pair is a no-op.
	trie.remove("a/+/c", s1)
	trie.remove("never/added", s1)
	if got := trieMatches(trie, "a/b/c"); len(got) != 1 {
		t.Fatalf("matches after no-op removes: %d, want 1", len(got))
	}
}

func TestTriePrunesEmptyBranches(t *testing.T) {
	trie := newSubTrie()
	s := &session{clientID: "c"}
	trie.add("deep/l1/l2/l3/#", s, QoS1)
	trie.add("deep/l1/+", s, QoS1)
	trie.remove("deep/l1/l2/l3/#", s)
	if n := trie.root.children["deep"].children["l1"]; n.children != nil && len(n.children) != 0 {
		t.Fatalf("emptied branch not pruned: %+v", n.children)
	}
	trie.remove("deep/l1/+", s)
	if len(trie.root.children) != 0 {
		t.Fatalf("root still has children after removing every filter: %d", len(trie.root.children))
	}
}

// randomLevel and friends generate valid filters/topics over a small level
// alphabet so collisions (and hence matches) are frequent.
func randomTopic(r *rand.Rand) string {
	levels := []string{"a", "b", "c", "meters", "report", ""}
	n := 1 + r.Intn(4)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = levels[r.Intn(len(levels))]
	}
	t := strings.Join(parts, "/")
	if t == "" {
		t = "a"
	}
	return t
}

func randomFilter(r *rand.Rand) string {
	levels := []string{"a", "b", "c", "meters", "report", "", "+", "+"}
	n := 1 + r.Intn(4)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = levels[r.Intn(len(levels))]
	}
	if r.Intn(3) == 0 {
		parts[n-1] = "#"
	}
	return strings.Join(parts, "/")
}

// TestTrieMatchesOracle drives the trie against the linear MatchTopic scan
// the v1 broker used, over thousands of random (subscription set, topic)
// pairs including adds and removes. The two must route identically.
func TestTrieMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 200; round++ {
		trie := newSubTrie()
		type sub struct {
			filter string
			s      *session
		}
		var subs []sub
		sessions := make([]*session, 3+r.Intn(5))
		for i := range sessions {
			sessions[i] = &session{clientID: fmt.Sprintf("c%d", i)}
		}
		nsubs := 1 + r.Intn(20)
		for i := 0; i < nsubs; i++ {
			f := randomFilter(r)
			if ValidateTopicFilter(f) != nil {
				continue
			}
			s := sessions[r.Intn(len(sessions))]
			q := QoS(r.Intn(3))
			trie.add(f, s, q)
			// Mirror broker bookkeeping: same (filter, session) pair
			// replaces the previous grant.
			replaced := false
			for j := range subs {
				if subs[j].filter == f && subs[j].s == s {
					replaced = true
					break
				}
			}
			if !replaced {
				subs = append(subs, sub{f, s})
			}
		}
		// Random removals.
		for i := 0; i < len(subs)/3; i++ {
			k := r.Intn(len(subs))
			trie.remove(subs[k].filter, subs[k].s)
			subs = append(subs[:k], subs[k+1:]...)
		}
		for probe := 0; probe < 25; probe++ {
			topic := randomTopic(r)
			if ValidateTopicName(topic) != nil {
				continue
			}
			want := map[*session]bool{}
			for _, su := range subs {
				if MatchTopic(su.filter, topic) {
					want[su.s] = true
				}
			}
			got := trieMatches(trie, topic)
			if len(got) != len(want) {
				var fs []string
				for _, su := range subs {
					fs = append(fs, su.filter+"@"+su.s.clientID)
				}
				t.Fatalf("round %d topic %q: trie matched %d sessions, oracle %d\nsubs: %v",
					round, topic, len(got), len(want), fs)
			}
			for s := range want {
				if _, ok := got[s]; !ok {
					t.Fatalf("round %d topic %q: oracle matches %s, trie does not", round, topic, s.clientID)
				}
			}
		}
	}
}

func TestMatchTopicZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if !MatchTopic("meters/+/+/report", "meters/agg1/device1/report") {
			t.Fatal("no match")
		}
		if MatchTopic("meters/+/x/#", "meters/agg1/device1/report") {
			t.Fatal("false match")
		}
	})
	if allocs != 0 {
		t.Fatalf("MatchTopic: %v allocs/op, want 0", allocs)
	}
}

func TestTrieMatchZeroAlloc(t *testing.T) {
	trie := newSubTrie()
	for i := 0; i < 100; i++ {
		trie.add(fmt.Sprintf("meters/agg1/device%d/report", i), &session{}, QoS1)
	}
	visit := func(*session, QoS) {}
	allocs := testing.AllocsPerRun(100, func() {
		trie.match("meters/agg1/device42/report", visit)
	})
	if allocs != 0 {
		t.Fatalf("trie match: %v allocs/op, want 0", allocs)
	}
}

// TestSubscribeAfterTakeoverDoesNotLeakTrie pins the guard against a
// SUBSCRIBE racing a clean-session takeover: once another session object
// owns the client ID, a late handleSubscribe from the superseded session
// must not insert into the routing trie — nothing would ever remove the
// entry, leaving a permanent route to a dead session.
func TestSubscribeAfterTakeoverDoesNotLeakTrie(t *testing.T) {
	b := mustBroker(t, BrokerOptions{})
	old := &session{broker: b, clientID: "c", subs: map[string]QoS{}}
	// The takeover already happened: a fresh session owns "c".
	b.sessions["c"] = &session{broker: b, clientID: "c", subs: map[string]QoS{}}
	// The old connection's in-flight SUBSCRIBE lands now; the SUBACK write
	// fails (no conn) but the trie insertion is what matters.
	_ = b.handleSubscribe(old, &SubscribePacket{
		PacketID:      1,
		Subscriptions: []Subscription{{Filter: "leak/#", QoS: QoS1}},
	})
	if got := trieMatches(b.subs, "leak/x"); len(got) != 0 {
		t.Fatalf("superseded session's subscription reached the trie: %d matches", len(got))
	}
}

// BenchmarkBrokerFanout routes one publish through a broker holding 10k
// subscriptions; with the v1 linear scan this walked every subscription of
// every session, with the trie it is O(topic levels + 1 match).
func BenchmarkBrokerFanout(b *testing.B) {
	broker := mustBroker(b, BrokerOptions{})
	const n = 10000
	for i := 0; i < n; i++ {
		s := &session{
			broker:   broker,
			clientID: fmt.Sprintf("dev%d", i),
			subs:     map[string]QoS{},
		}
		filter := fmt.Sprintf("meters/agg1/device%d/report", i)
		s.subs[filter] = QoS0
		broker.sessions[s.clientID] = s
		broker.subs.add(filter, s, QoS0)
	}
	p := &PublishPacket{Topic: "meters/agg1/device4242/report", Payload: []byte("x"), QoS: QoS0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broker.route(p, nil)
	}
}

// BenchmarkBrokerFanoutWildcards is the same population but with every
// session also holding a two-wildcard filter, the shape the aggregator's
// report tap uses.
func BenchmarkBrokerFanoutWildcards(b *testing.B) {
	broker := mustBroker(b, BrokerOptions{})
	const n = 10000
	for i := 0; i < n; i++ {
		s := &session{
			broker:   broker,
			clientID: fmt.Sprintf("dev%d", i),
			subs:     map[string]QoS{},
		}
		filter := fmt.Sprintf("meters/agg%d/+/report", i)
		s.subs[filter] = QoS0
		broker.sessions[s.clientID] = s
		broker.subs.add(filter, s, QoS0)
	}
	p := &PublishPacket{Topic: "meters/agg4242/device1/report", Payload: []byte("x"), QoS: QoS0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broker.route(p, nil)
	}
}

// discardConn is a connected-but-bottomless net.Conn: writes succeed and
// vanish. It lets the alloc guard exercise the full deliver -> encode ->
// conn.Write path without a peer.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }
func (discardConn) Close() error                { return nil }
func (discardConn) SetDeadline(time.Time) error { return nil }
func (discardConn) LocalAddr() net.Addr         { return nil }
func (discardConn) RemoteAddr() net.Addr        { return nil }

// TestBrokerFanoutAllocFree guards the pooled per-publish delivery list:
// once the route pool and the sessions' write buffers are warm, fanning a
// publish out to its subscriber — matching, packet copy, encode and write —
// performs zero allocations.
func TestBrokerFanoutAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside sync.Pool")
	}
	broker := mustBroker(t, BrokerOptions{})
	const n = 1000
	for i := 0; i < n; i++ {
		s := &session{
			broker:   broker,
			clientID: fmt.Sprintf("dev%d", i),
			subs:     map[string]QoS{},
			out:      &connWriter{conn: discardConn{}},
		}
		filter := fmt.Sprintf("meters/agg1/device%d/report", i)
		s.subs[filter] = QoS0
		broker.sessions[s.clientID] = s
		broker.subs.add(filter, s, QoS0)
	}
	p := &PublishPacket{Topic: "meters/agg1/device42/report", Payload: []byte(`{"seq":42}`), QoS: QoS0}
	broker.route(p, nil) // warm the route pool and the write buffer
	if allocs := testing.AllocsPerRun(200, func() { broker.route(p, nil) }); allocs != 0 {
		t.Fatalf("broker fan-out allocates %.1f per publish, want 0 steady-state", allocs)
	}
	// Same guard for the wildcard-filter shape the aggregator tap uses.
	wild := &session{
		broker:   broker,
		clientID: "tap",
		subs:     map[string]QoS{"meters/agg1/+/report": QoS0},
		out:      &connWriter{conn: discardConn{}},
	}
	broker.sessions[wild.clientID] = wild
	broker.subs.add("meters/agg1/+/report", wild, QoS0)
	broker.route(p, nil)
	if allocs := testing.AllocsPerRun(200, func() { broker.route(p, nil) }); allocs != 0 {
		t.Fatalf("wildcard fan-out allocates %.1f per publish, want 0 steady-state", allocs)
	}
}
