package mqtt

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

// packetStream encodes ps back to back, the way a client pipelines them.
func packetStream(t testing.TB, ps ...Packet) []byte {
	t.Helper()
	var stream []byte
	for _, p := range ps {
		var err error
		if stream, err = p.encode(stream); err != nil {
			t.Fatalf("encode %v: %v", p.Type(), err)
		}
	}
	return stream
}

// TestReadPacketAgreesWithDecode reads one concatenated packet stream
// through every reader shape the broker and client meet — a bufio.Reader
// smaller than a packet, one-byte and half reads, a plain io.Reader — and
// requires the same packets Decode finds in the same bytes, then io.EOF.
func TestReadPacketAgreesWithDecode(t *testing.T) {
	big := bytes.Repeat([]byte{0xa5}, 3*readBufSize)
	stream := packetStream(t,
		&ConnectPacket{ClientID: "dev1", CleanSession: true, KeepAliveSec: 30},
		&SubscribePacket{PacketID: 1, Subscriptions: []Subscription{{Filter: "meters/+/report", QoS: QoS1}}},
		&PublishPacket{Topic: "meters/d1/report", Payload: []byte("report"), QoS: QoS1, PacketID: 2},
		NewPuback(9),
		&PublishPacket{Topic: "big", Payload: big, QoS: QoS0},
		&PingreqPacket{},
		&PublishPacket{Topic: "empty", QoS: QoS2, PacketID: 3},
		&DisconnectPacket{},
	)
	var want []Packet
	for rest := stream; len(rest) > 0; {
		p, n, err := Decode(rest)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		want = append(want, p)
		rest = rest[n:]
	}
	readers := map[string]func() io.Reader{
		"bufio":          func() io.Reader { return bufio.NewReaderSize(bytes.NewReader(stream), 16) },
		"bufio-default":  func() io.Reader { return bufio.NewReader(bytes.NewReader(stream)) },
		"one-byte":       func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"half":           func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
		"bufio-one-byte": func() io.Reader { return bufio.NewReader(iotest.OneByteReader(bytes.NewReader(stream))) },
	}
	for name, mk := range readers {
		r := mk()
		for i, w := range want {
			got, err := ReadPacket(r)
			if err != nil {
				t.Fatalf("%s: packet %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("%s: packet %d: got %#v, want %#v", name, i, got, w)
			}
		}
		if _, err := ReadPacket(r); err != io.EOF {
			t.Fatalf("%s: after the stream: %v, want io.EOF", name, err)
		}
	}
}

// TestReadPacketBufioAllocs pins the buffered read path: with the fixed
// header served by the bufio.Reader's own ReadByte, reading a packet
// allocates only its body and the packet itself.
func TestReadPacketBufioAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes allocation counts")
	}
	const runs = 200
	one := packetStream(t, NewPuback(7))
	rd := bufio.NewReader(bytes.NewReader(bytes.Repeat(one, runs+1)))
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := ReadPacket(rd); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("buffered ReadPacket allocates %.1f per packet, want 2 (body + packet)", allocs)
	}
}

// rawDial opens a packet-level connection without any handshake.
func rawDial(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawSession{t: t, conn: conn}
}

// TestBrokerPipelinedPackets sends CONNECT, SUBSCRIBE and a QoS 1 PUBLISH
// in one write: the CONNECT read must keep the bytes behind it, and the
// replies must come back in protocol order. A packet left half-sent after
// them must not hold the replies back: the broker flushes before it blocks
// on the rest.
func TestBrokerPipelinedPackets(t *testing.T) {
	_, addr := startBroker(t, BrokerOptions{})
	r := rawDial(t, addr)
	if _, err := r.conn.Write(packetStream(t,
		&ConnectPacket{ClientID: "pipe", CleanSession: true},
		&SubscribePacket{PacketID: 1, Subscriptions: []Subscription{{Filter: "pipe/t", QoS: QoS1}}},
		&PublishPacket{Topic: "pipe/t", Payload: []byte("x"), QoS: QoS1, PacketID: 7},
	)); err != nil {
		t.Fatal(err)
	}
	if ack, ok := r.read(5 * time.Second).(*ConnackPacket); !ok || ack.ReturnCode != ConnAccepted {
		t.Fatal("first reply is not an accepting CONNACK")
	}
	if _, ok := r.read(5 * time.Second).(*SubackPacket); !ok {
		t.Fatal("second reply is not the SUBACK")
	}
	// The PUBACK and the delivery of the message to its own publisher.
	var puback, delivered bool
	for i := 0; i < 2; i++ {
		switch p := r.read(5 * time.Second).(type) {
		case *PubackPacket:
			puback = p.PacketID == 7
		case *PublishPacket:
			delivered = p.Topic == "pipe/t" && string(p.Payload) == "x"
			r.send(NewPuback(p.PacketID))
		}
	}
	if !puback || !delivered {
		t.Fatalf("got puback=%v delivered=%v, want both", puback, delivered)
	}

	pub := packetStream(t,
		&PingreqPacket{},
		&PublishPacket{Topic: "other", Payload: []byte("half"), QoS: QoS1, PacketID: 8},
	)
	split := len(pub) - 3
	if _, err := r.conn.Write(pub[:split]); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.read(5 * time.Second).(*PingrespPacket); !ok {
		t.Fatal("PINGRESP held back behind a half-sent packet")
	}
	if _, err := r.conn.Write(pub[split:]); err != nil {
		t.Fatal(err)
	}
	if ack, ok := r.read(5 * time.Second).(*PubackPacket); !ok || ack.PacketID != 8 {
		t.Fatal("no PUBACK for the completed packet")
	}
}

// TestDeliveryToIdleSubscriber routes messages from other goroutines — a
// publishing session and the broker itself — into a subscriber whose read
// loop is blocked on an idle socket. Every delivery must arrive promptly:
// no write may be left corked.
func TestDeliveryToIdleSubscriber(t *testing.T) {
	b, addr := startBroker(t, BrokerOptions{})
	sub, _ := rawConnect(t, addr, "idle", true)
	sub.subscribe("idle/t", QoS1)
	pub := dialClient(t, addr, "pub", ClientOptions{})
	for i := 0; i < 20; i++ {
		var err error
		if i%2 == 0 {
			err = pub.Publish("idle/t", []byte{byte(i)}, QoS1, false)
		} else {
			err = b.Publish("idle/t", []byte{byte(i)}, QoS1, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		p, ok := sub.read(2 * time.Second).(*PublishPacket)
		if !ok || len(p.Payload) != 1 || p.Payload[0] != byte(i) {
			t.Fatalf("delivery %d: got %#v", i, p)
		}
		sub.send(NewPuback(p.PacketID))
	}
}

// countingListener counts the Read and Write calls made on the connections
// it accepts: one per read(2) and write(2) the broker issues.
type countingListener struct {
	net.Listener
	reads, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.l.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

// BenchmarkBrokerConnRoundTrip is the broker's per-connection I/O on the
// report path. A loopback client pipelines QoS 1 reports, up to 64 unacked;
// OnPublish answers each with a QoS 1 publish to the client's reply topic,
// the shape of meterd's ReportAck, and the client PUBACKs every answer. One
// op is one report's full round trip. reads/op and writes/op are the
// broker's Read and Write calls on the connection.
func BenchmarkBrokerConnRoundTrip(b *testing.B) {
	const (
		window      = 64
		reportTopic = "bench/c1/report"
		replyTopic  = "bench/c1/ack"
	)
	report := []byte("report-payload-of-about-forty-five-bytes....")
	reply := []byte("ack-seq-0000")
	var broker *Broker
	broker = mustBroker(b, BrokerOptions{OnPublish: func(topic string, _ []byte) {
		if topic == reportTopic {
			_ = broker.Publish(replyTopic, reply, QoS1, false)
		}
	}})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	go broker.Serve(ln)
	defer broker.Close()

	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	if _, err := conn.Write(packetStream(b,
		&ConnectPacket{ClientID: "c1", CleanSession: true},
		&SubscribePacket{PacketID: 1, Subscriptions: []Subscription{{Filter: replyTopic, QoS: QoS1}}},
	)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ { // CONNACK, SUBACK
		if _, err := ReadPacket(rd); err != nil {
			b.Fatal(err)
		}
	}

	var wmu sync.Mutex // the writer and the reader's PUBACKs share conn
	write := func(p Packet, buf []byte) ([]byte, error) {
		buf, err := p.encode(buf[:0])
		if err != nil {
			return buf, err
		}
		wmu.Lock()
		_, err = conn.Write(buf)
		wmu.Unlock()
		return buf, err
	}
	slots := make(chan struct{}, window)
	errc := make(chan error, 1)

	b.ReportAllocs()
	b.ResetTimer()
	reads0, writes0 := ln.reads.Load(), ln.writes.Load()
	go func() {
		var buf []byte
		pub := &PublishPacket{Topic: reportTopic, Payload: report, QoS: QoS1}
		for i := 0; i < b.N; i++ {
			slots <- struct{}{}
			pub.PacketID = uint16(i%65535) + 1
			var err error
			if buf, err = write(pub, buf); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	var buf []byte
	for pubacks, replies := 0, 0; pubacks < b.N || replies < b.N; {
		p, err := ReadPacket(rd)
		if err != nil {
			b.Fatal(err)
		}
		switch p := p.(type) {
		case *PubackPacket:
			pubacks++
			<-slots
		case *PublishPacket:
			replies++
			if buf, err = write(NewPuback(p.PacketID), buf); err != nil {
				b.Fatal(err)
			}
		default:
			b.Fatalf("unexpected %v", p.Type())
		}
	}
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(ln.reads.Load()-reads0)/float64(b.N), "reads/op")
	b.ReportMetric(float64(ln.writes.Load()-writes0)/float64(b.N), "writes/op")
}

// errClosedWriter fails every write, like a socket its peer has reset.
type errClosedWriter struct{ discardConn }

func (errClosedWriter) Write([]byte) (int, error) { return 0, net.ErrClosed }

// TestConnWriterCorkedErrorSurfacesOnUncork: a corked write only encodes,
// so a dead socket is reported when the burst is flushed.
func TestConnWriterCorkedErrorSurfacesOnUncork(t *testing.T) {
	w := &connWriter{conn: errClosedWriter{}, corked: true}
	if err := w.write(NewPuback(1)); err != nil {
		t.Fatalf("corked write: %v", err)
	}
	if err := w.uncork(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("uncork: %v, want net.ErrClosed", err)
	}
	if err := w.write(NewPuback(2)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("uncorked write: %v, want net.ErrClosed", err)
	}
}
