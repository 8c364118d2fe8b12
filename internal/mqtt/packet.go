// Package mqtt implements the MQTT 3.1.1 protocol (OASIS standard): a wire
// codec for all fourteen control packets, topic-filter matching, a broker
// and a client, all on top of the standard library's net package.
//
// The paper's testbed transports consumption reports over "MQTT protocol
// ... over Wi-Fi" between ESP32 devices and Raspberry Pi aggregators. This
// package is that transport: cmd/meterd runs the broker side, cmd/devicesim
// the device side, and integration tests drive both over real TCP sockets.
package mqtt

import (
	"errors"
	"fmt"
	"io"
)

// PacketType identifies an MQTT control packet (spec section 2.2.1).
type PacketType byte

// Control packet types.
const (
	CONNECT     PacketType = 1
	CONNACK     PacketType = 2
	PUBLISH     PacketType = 3
	PUBACK      PacketType = 4
	PUBREC      PacketType = 5
	PUBREL      PacketType = 6
	PUBCOMP     PacketType = 7
	SUBSCRIBE   PacketType = 8
	SUBACK      PacketType = 9
	UNSUBSCRIBE PacketType = 10
	UNSUBACK    PacketType = 11
	PINGREQ     PacketType = 12
	PINGRESP    PacketType = 13
	DISCONNECT  PacketType = 14
)

// String implements fmt.Stringer.
func (t PacketType) String() string {
	names := [...]string{"RESERVED0", "CONNECT", "CONNACK", "PUBLISH", "PUBACK",
		"PUBREC", "PUBREL", "PUBCOMP", "SUBSCRIBE", "SUBACK", "UNSUBSCRIBE",
		"UNSUBACK", "PINGREQ", "PINGRESP", "DISCONNECT"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("RESERVED%d", byte(t))
}

// QoS is a delivery quality-of-service level.
type QoS byte

// QoS levels.
const (
	QoS0 QoS = 0 // at most once
	QoS1 QoS = 1 // at least once
	QoS2 QoS = 2 // exactly once
)

// Connect return codes (CONNACK, spec table 3.1).
const (
	ConnAccepted           = 0
	ConnRefusedVersion     = 1
	ConnRefusedIdentifier  = 2
	ConnRefusedUnavailable = 3
	ConnRefusedBadAuth     = 4
	ConnRefusedNotAuth     = 5
)

// Protocol errors.
var (
	ErrMalformedPacket   = errors.New("mqtt: malformed packet")
	ErrPacketTooLarge    = errors.New("mqtt: packet exceeds maximum size")
	ErrInvalidQoS        = errors.New("mqtt: invalid QoS")
	ErrInvalidTopic      = errors.New("mqtt: invalid topic")
	ErrProtocolViolation = errors.New("mqtt: protocol violation")
)

// MaxPacketSize bounds accepted remaining lengths; the spec allows up to
// 256 MB, metering payloads are tiny, so a megabyte is generous.
const MaxPacketSize = 1 << 20

// Packet is any MQTT control packet.
type Packet interface {
	// Type returns the control packet type.
	Type() PacketType
	// encode appends the full packet (fixed header included) to dst.
	encode(dst []byte) ([]byte, error)
	// decode parses the variable header + payload from body, given the
	// fixed-header flags.
	decode(flags byte, body []byte) error
}

// --- fixed header helpers -------------------------------------------------

// encodeRemainingLength appends the MQTT variable-length integer.
func encodeRemainingLength(dst []byte, n int) ([]byte, error) {
	if n < 0 || n > 0xFFFFFF7F {
		return dst, ErrPacketTooLarge
	}
	for {
		b := byte(n % 128)
		n /= 128
		if n > 0 {
			b |= 0x80
		}
		dst = append(dst, b)
		if n == 0 {
			return dst, nil
		}
	}
}

// decodeRemainingLength reads the variable-length integer from r.
func decodeRemainingLength(r io.ByteReader) (int, error) {
	var n, shift int
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		n |= int(b&0x7f) << shift
		if b&0x80 == 0 {
			return n, nil
		}
		shift += 7
	}
	return 0, fmt.Errorf("%w: remaining length overlong", ErrMalformedPacket)
}

// --- primitive field helpers ----------------------------------------------

func appendUint16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendString(dst []byte, s string) []byte {
	dst = appendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func readUint16(b []byte) (uint16, []byte, error) {
	if len(b) < 2 {
		return 0, nil, fmt.Errorf("%w: truncated uint16", ErrMalformedPacket)
	}
	return uint16(b[0])<<8 | uint16(b[1]), b[2:], nil
}

func readString(b []byte) (string, []byte, error) {
	n, rest, err := readUint16(b)
	if err != nil {
		return "", nil, err
	}
	if len(rest) < int(n) {
		return "", nil, fmt.Errorf("%w: truncated string", ErrMalformedPacket)
	}
	return string(rest[:n]), rest[n:], nil
}

func readBytesField(b []byte) ([]byte, []byte, error) {
	n, rest, err := readUint16(b)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) < int(n) {
		return nil, nil, fmt.Errorf("%w: truncated bytes", ErrMalformedPacket)
	}
	out := make([]byte, n)
	copy(out, rest[:n])
	return out, rest[n:], nil
}

// --- CONNECT ----------------------------------------------------------------

// ConnectPacket opens a session (spec section 3.1).
type ConnectPacket struct {
	ClientID     string
	CleanSession bool
	KeepAliveSec uint16
	Username     string
	Password     []byte
	WillTopic    string
	WillMessage  []byte
	WillQoS      QoS
	WillRetain   bool
	hasUsername  bool
	hasPassword  bool
}

// Type implements Packet.
func (p *ConnectPacket) Type() PacketType { return CONNECT }

func (p *ConnectPacket) encode(dst []byte) ([]byte, error) {
	var body []byte
	body = appendString(body, "MQTT")
	body = append(body, 4) // protocol level 3.1.1
	var flags byte
	if p.CleanSession {
		flags |= 0x02
	}
	if p.WillTopic != "" {
		flags |= 0x04
		flags |= byte(p.WillQoS) << 3
		if p.WillRetain {
			flags |= 0x20
		}
	}
	if p.Username != "" || p.hasUsername {
		flags |= 0x80
	}
	if len(p.Password) > 0 || p.hasPassword {
		flags |= 0x40
	}
	body = append(body, flags)
	body = appendUint16(body, p.KeepAliveSec)
	body = appendString(body, p.ClientID)
	if p.WillTopic != "" {
		body = appendString(body, p.WillTopic)
		body = appendUint16(body, uint16(len(p.WillMessage)))
		body = append(body, p.WillMessage...)
	}
	if flags&0x80 != 0 {
		body = appendString(body, p.Username)
	}
	if flags&0x40 != 0 {
		body = appendUint16(body, uint16(len(p.Password)))
		body = append(body, p.Password...)
	}
	dst = append(dst, byte(CONNECT)<<4)
	dst, err := encodeRemainingLength(dst, len(body))
	if err != nil {
		return nil, err
	}
	return append(dst, body...), nil
}

func (p *ConnectPacket) decode(_ byte, body []byte) error {
	proto, rest, err := readString(body)
	if err != nil {
		return err
	}
	if proto != "MQTT" {
		return fmt.Errorf("%w: protocol name %q", ErrProtocolViolation, proto)
	}
	if len(rest) < 4 {
		return fmt.Errorf("%w: truncated connect", ErrMalformedPacket)
	}
	level := rest[0]
	if level != 4 {
		return fmt.Errorf("%w: protocol level %d", ErrProtocolViolation, level)
	}
	flags := rest[1]
	if flags&0x01 != 0 {
		return fmt.Errorf("%w: connect reserved flag set", ErrProtocolViolation)
	}
	p.KeepAliveSec = uint16(rest[2])<<8 | uint16(rest[3])
	rest = rest[4:]
	p.CleanSession = flags&0x02 != 0
	p.ClientID, rest, err = readString(rest)
	if err != nil {
		return err
	}
	if flags&0x04 != 0 {
		p.WillQoS = QoS((flags >> 3) & 0x3)
		if p.WillQoS > QoS2 {
			return ErrInvalidQoS
		}
		p.WillRetain = flags&0x20 != 0
		p.WillTopic, rest, err = readString(rest)
		if err != nil {
			return err
		}
		p.WillMessage, rest, err = readBytesField(rest)
		if err != nil {
			return err
		}
	} else if flags&0x38 != 0 {
		return fmt.Errorf("%w: will flags without will", ErrProtocolViolation)
	}
	if flags&0x80 != 0 {
		p.hasUsername = true
		p.Username, rest, err = readString(rest)
		if err != nil {
			return err
		}
	}
	if flags&0x40 != 0 {
		p.hasPassword = true
		p.Password, rest, err = readBytesField(rest)
		if err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in CONNECT", ErrMalformedPacket, len(rest))
	}
	return nil
}

// --- CONNACK ----------------------------------------------------------------

// ConnackPacket acknowledges a CONNECT (spec section 3.2).
type ConnackPacket struct {
	SessionPresent bool
	ReturnCode     byte
}

// Type implements Packet.
func (p *ConnackPacket) Type() PacketType { return CONNACK }

func (p *ConnackPacket) encode(dst []byte) ([]byte, error) {
	dst = append(dst, byte(CONNACK)<<4, 2)
	var ack byte
	if p.SessionPresent {
		ack = 1
	}
	return append(dst, ack, p.ReturnCode), nil
}

func (p *ConnackPacket) decode(_ byte, body []byte) error {
	if len(body) != 2 {
		return fmt.Errorf("%w: CONNACK length %d", ErrMalformedPacket, len(body))
	}
	p.SessionPresent = body[0]&1 != 0
	p.ReturnCode = body[1]
	return nil
}

// --- PUBLISH ----------------------------------------------------------------

// PublishPacket carries an application message (spec section 3.3).
type PublishPacket struct {
	Topic    string
	Payload  []byte
	QoS      QoS
	Retain   bool
	Dup      bool
	PacketID uint16 // present iff QoS > 0
}

// Type implements Packet.
func (p *PublishPacket) Type() PacketType { return PUBLISH }

func (p *PublishPacket) encode(dst []byte) ([]byte, error) {
	if p.QoS > QoS2 {
		return nil, ErrInvalidQoS
	}
	if err := ValidateTopicName(p.Topic); err != nil {
		return nil, err
	}
	if p.QoS > 0 && p.PacketID == 0 {
		return nil, fmt.Errorf("%w: QoS>0 publish without packet id", ErrProtocolViolation)
	}
	// The remaining length is arithmetic, so the variable header + payload
	// encode straight into dst — no intermediate body buffer (this is the
	// broker fan-out hot path; see session.write's reused buffer).
	remaining := 2 + len(p.Topic) + len(p.Payload)
	if p.QoS > 0 {
		remaining += 2
	}
	flags := byte(p.QoS) << 1
	if p.Retain {
		flags |= 0x01
	}
	if p.Dup {
		flags |= 0x08
	}
	dst = append(dst, byte(PUBLISH)<<4|flags)
	dst, err := encodeRemainingLength(dst, remaining)
	if err != nil {
		return nil, err
	}
	dst = appendString(dst, p.Topic)
	if p.QoS > 0 {
		dst = appendUint16(dst, p.PacketID)
	}
	return append(dst, p.Payload...), nil
}

func (p *PublishPacket) decode(flags byte, body []byte) error {
	p.Retain = flags&0x01 != 0
	p.Dup = flags&0x08 != 0
	p.QoS = QoS((flags >> 1) & 0x3)
	if p.QoS > QoS2 {
		return ErrInvalidQoS
	}
	var err error
	p.Topic, body, err = readString(body)
	if err != nil {
		return err
	}
	if err := ValidateTopicName(p.Topic); err != nil {
		return err
	}
	if p.QoS > 0 {
		p.PacketID, body, err = readUint16(body)
		if err != nil {
			return err
		}
		if p.PacketID == 0 {
			return fmt.Errorf("%w: zero packet id", ErrProtocolViolation)
		}
	}
	p.Payload = make([]byte, len(body))
	copy(p.Payload, body)
	return nil
}

// --- packet-id-only acks ----------------------------------------------------

// ackPacket is the shared shape of PUBACK/PUBREC/PUBREL/PUBCOMP/UNSUBACK.
type ackPacket struct {
	packetType PacketType
	PacketID   uint16
}

func (p *ackPacket) Type() PacketType { return p.packetType }

func (p *ackPacket) encode(dst []byte) ([]byte, error) {
	flags := byte(0)
	if p.packetType == PUBREL {
		flags = 0x02 // mandated reserved flags
	}
	dst = append(dst, byte(p.packetType)<<4|flags, 2)
	return appendUint16(dst, p.PacketID), nil
}

func (p *ackPacket) decode(flags byte, body []byte) error {
	want := byte(0)
	if p.packetType == PUBREL {
		want = 0x02
	}
	if flags != want {
		return fmt.Errorf("%w: %v flags %#x", ErrProtocolViolation, p.packetType, flags)
	}
	if len(body) != 2 {
		return fmt.Errorf("%w: %v length %d", ErrMalformedPacket, p.packetType, len(body))
	}
	p.PacketID = uint16(body[0])<<8 | uint16(body[1])
	return nil
}

// PubackPacket acknowledges a QoS 1 publish.
type PubackPacket struct{ ackPacket }

// NewPuback builds a PUBACK for id.
func NewPuback(id uint16) *PubackPacket {
	return &PubackPacket{ackPacket{packetType: PUBACK, PacketID: id}}
}

// PubrecPacket is the first QoS 2 handshake step.
type PubrecPacket struct{ ackPacket }

// NewPubrec builds a PUBREC for id.
func NewPubrec(id uint16) *PubrecPacket {
	return &PubrecPacket{ackPacket{packetType: PUBREC, PacketID: id}}
}

// PubrelPacket is the second QoS 2 handshake step.
type PubrelPacket struct{ ackPacket }

// NewPubrel builds a PUBREL for id.
func NewPubrel(id uint16) *PubrelPacket {
	return &PubrelPacket{ackPacket{packetType: PUBREL, PacketID: id}}
}

// PubcompPacket completes the QoS 2 handshake.
type PubcompPacket struct{ ackPacket }

// NewPubcomp builds a PUBCOMP for id.
func NewPubcomp(id uint16) *PubcompPacket {
	return &PubcompPacket{ackPacket{packetType: PUBCOMP, PacketID: id}}
}

// UnsubackPacket acknowledges an UNSUBSCRIBE.
type UnsubackPacket struct{ ackPacket }

// NewUnsuback builds an UNSUBACK for id.
func NewUnsuback(id uint16) *UnsubackPacket {
	return &UnsubackPacket{ackPacket{packetType: UNSUBACK, PacketID: id}}
}

// --- SUBSCRIBE / SUBACK -------------------------------------------------------

// Subscription pairs a topic filter with a requested QoS.
type Subscription struct {
	Filter string
	QoS    QoS
}

// SubscribePacket requests one or more subscriptions (spec section 3.8).
type SubscribePacket struct {
	PacketID      uint16
	Subscriptions []Subscription
}

// Type implements Packet.
func (p *SubscribePacket) Type() PacketType { return SUBSCRIBE }

func (p *SubscribePacket) encode(dst []byte) ([]byte, error) {
	if len(p.Subscriptions) == 0 {
		return nil, fmt.Errorf("%w: empty SUBSCRIBE", ErrProtocolViolation)
	}
	var body []byte
	body = appendUint16(body, p.PacketID)
	for _, s := range p.Subscriptions {
		if err := ValidateTopicFilter(s.Filter); err != nil {
			return nil, err
		}
		if s.QoS > QoS2 {
			return nil, ErrInvalidQoS
		}
		body = appendString(body, s.Filter)
		body = append(body, byte(s.QoS))
	}
	dst = append(dst, byte(SUBSCRIBE)<<4|0x02)
	dst, err := encodeRemainingLength(dst, len(body))
	if err != nil {
		return nil, err
	}
	return append(dst, body...), nil
}

func (p *SubscribePacket) decode(flags byte, body []byte) error {
	if flags != 0x02 {
		return fmt.Errorf("%w: SUBSCRIBE flags %#x", ErrProtocolViolation, flags)
	}
	var err error
	p.PacketID, body, err = readUint16(body)
	if err != nil {
		return err
	}
	for len(body) > 0 {
		var filter string
		filter, body, err = readString(body)
		if err != nil {
			return err
		}
		if len(body) < 1 {
			return fmt.Errorf("%w: SUBSCRIBE missing QoS", ErrMalformedPacket)
		}
		q := QoS(body[0])
		body = body[1:]
		if q > QoS2 {
			return ErrInvalidQoS
		}
		if err := ValidateTopicFilter(filter); err != nil {
			return err
		}
		p.Subscriptions = append(p.Subscriptions, Subscription{Filter: filter, QoS: q})
	}
	if len(p.Subscriptions) == 0 {
		return fmt.Errorf("%w: empty SUBSCRIBE", ErrProtocolViolation)
	}
	return nil
}

// SubackPacket grants subscriptions (spec section 3.9). Each return code is
// the granted QoS or 0x80 for failure.
type SubackPacket struct {
	PacketID    uint16
	ReturnCodes []byte
}

// SubackFailure is the return code for a refused subscription.
const SubackFailure = 0x80

// Type implements Packet.
func (p *SubackPacket) Type() PacketType { return SUBACK }

func (p *SubackPacket) encode(dst []byte) ([]byte, error) {
	var body []byte
	body = appendUint16(body, p.PacketID)
	body = append(body, p.ReturnCodes...)
	dst = append(dst, byte(SUBACK)<<4)
	dst, err := encodeRemainingLength(dst, len(body))
	if err != nil {
		return nil, err
	}
	return append(dst, body...), nil
}

func (p *SubackPacket) decode(_ byte, body []byte) error {
	var err error
	p.PacketID, body, err = readUint16(body)
	if err != nil {
		return err
	}
	p.ReturnCodes = make([]byte, len(body))
	copy(p.ReturnCodes, body)
	return nil
}

// --- UNSUBSCRIBE ----------------------------------------------------------

// UnsubscribePacket removes subscriptions (spec section 3.10).
type UnsubscribePacket struct {
	PacketID uint16
	Filters  []string
}

// Type implements Packet.
func (p *UnsubscribePacket) Type() PacketType { return UNSUBSCRIBE }

func (p *UnsubscribePacket) encode(dst []byte) ([]byte, error) {
	if len(p.Filters) == 0 {
		return nil, fmt.Errorf("%w: empty UNSUBSCRIBE", ErrProtocolViolation)
	}
	var body []byte
	body = appendUint16(body, p.PacketID)
	for _, f := range p.Filters {
		body = appendString(body, f)
	}
	dst = append(dst, byte(UNSUBSCRIBE)<<4|0x02)
	dst, err := encodeRemainingLength(dst, len(body))
	if err != nil {
		return nil, err
	}
	return append(dst, body...), nil
}

func (p *UnsubscribePacket) decode(flags byte, body []byte) error {
	if flags != 0x02 {
		return fmt.Errorf("%w: UNSUBSCRIBE flags %#x", ErrProtocolViolation, flags)
	}
	var err error
	p.PacketID, body, err = readUint16(body)
	if err != nil {
		return err
	}
	for len(body) > 0 {
		var f string
		f, body, err = readString(body)
		if err != nil {
			return err
		}
		p.Filters = append(p.Filters, f)
	}
	if len(p.Filters) == 0 {
		return fmt.Errorf("%w: empty UNSUBSCRIBE", ErrProtocolViolation)
	}
	return nil
}

// --- zero-body packets -------------------------------------------------------

// PingreqPacket is the keepalive probe.
type PingreqPacket struct{}

// Type implements Packet.
func (p *PingreqPacket) Type() PacketType { return PINGREQ }

func (p *PingreqPacket) encode(dst []byte) ([]byte, error) {
	return append(dst, byte(PINGREQ)<<4, 0), nil
}

func (p *PingreqPacket) decode(_ byte, body []byte) error {
	if len(body) != 0 {
		return fmt.Errorf("%w: PINGREQ with body", ErrMalformedPacket)
	}
	return nil
}

// PingrespPacket answers a PINGREQ.
type PingrespPacket struct{}

// Type implements Packet.
func (p *PingrespPacket) Type() PacketType { return PINGRESP }

func (p *PingrespPacket) encode(dst []byte) ([]byte, error) {
	return append(dst, byte(PINGRESP)<<4, 0), nil
}

func (p *PingrespPacket) decode(_ byte, body []byte) error {
	if len(body) != 0 {
		return fmt.Errorf("%w: PINGRESP with body", ErrMalformedPacket)
	}
	return nil
}

// DisconnectPacket closes a session cleanly.
type DisconnectPacket struct{}

// Type implements Packet.
func (p *DisconnectPacket) Type() PacketType { return DISCONNECT }

func (p *DisconnectPacket) encode(dst []byte) ([]byte, error) {
	return append(dst, byte(DISCONNECT)<<4, 0), nil
}

func (p *DisconnectPacket) decode(_ byte, body []byte) error {
	if len(body) != 0 {
		return fmt.Errorf("%w: DISCONNECT with body", ErrMalformedPacket)
	}
	return nil
}

// --- top-level encode / decode ----------------------------------------------

// Encode serializes any packet to its wire form.
func Encode(p Packet) ([]byte, error) {
	return p.encode(nil)
}

// oneByteReader gives decodeRemainingLength a one-byte reader view of a
// reader that has no ReadByte of its own.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(o.r, b[:])
	return b[0], err
}

// ReadPacket reads one full packet from r. A reader that is also an
// io.ByteReader (a *bufio.Reader) serves the fixed header and the length
// from its own buffer; any other reader is read one byte at a time.
func ReadPacket(r io.Reader) (Packet, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = oneByteReader{r}
	}
	first, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	length, err := decodeRemainingLength(br)
	if err != nil {
		return nil, err
	}
	if length > MaxPacketSize {
		return nil, ErrPacketTooLarge
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return decodePacket(first, body)
}

// Decode parses one packet from a byte slice, returning it and the number of
// bytes consumed.
func Decode(b []byte) (Packet, int, error) {
	idx, n, err := packetExtent(b)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodePacket(b[0], b[idx:idx+n])
	return p, idx + n, err
}

// packetExtent parses the fixed header at the start of b and returns where
// the body starts and how long it is; io.ErrUnexpectedEOF means b does not
// yet hold the whole packet.
func packetExtent(b []byte) (idx, n int, err error) {
	if len(b) < 2 {
		return 0, 0, io.ErrUnexpectedEOF
	}
	// Parse the remaining length inline.
	shift := 0
	idx = 1
	for {
		if idx >= len(b) {
			return 0, 0, io.ErrUnexpectedEOF
		}
		c := b[idx]
		idx++
		n |= int(c&0x7f) << shift
		if c&0x80 == 0 {
			break
		}
		shift += 7
		if shift > 21 {
			return 0, 0, fmt.Errorf("%w: remaining length overlong", ErrMalformedPacket)
		}
	}
	if n > MaxPacketSize {
		return 0, 0, ErrPacketTooLarge
	}
	if len(b) < idx+n {
		return 0, 0, io.ErrUnexpectedEOF
	}
	return idx, n, nil
}

func decodePacket(first byte, body []byte) (Packet, error) {
	ptype := PacketType(first >> 4)
	flags := first & 0x0f
	var p Packet
	switch ptype {
	case CONNECT:
		p = &ConnectPacket{}
	case CONNACK:
		p = &ConnackPacket{}
	case PUBLISH:
		p = &PublishPacket{}
	case PUBACK:
		p = &PubackPacket{ackPacket{packetType: PUBACK}}
	case PUBREC:
		p = &PubrecPacket{ackPacket{packetType: PUBREC}}
	case PUBREL:
		p = &PubrelPacket{ackPacket{packetType: PUBREL}}
	case PUBCOMP:
		p = &PubcompPacket{ackPacket{packetType: PUBCOMP}}
	case SUBSCRIBE:
		p = &SubscribePacket{}
	case SUBACK:
		p = &SubackPacket{}
	case UNSUBSCRIBE:
		p = &UnsubscribePacket{}
	case UNSUBACK:
		p = &UnsubackPacket{ackPacket{packetType: UNSUBACK}}
	case PINGREQ:
		p = &PingreqPacket{}
	case PINGRESP:
		p = &PingrespPacket{}
	case DISCONNECT:
		p = &DisconnectPacket{}
	default:
		return nil, fmt.Errorf("%w: type %d", ErrMalformedPacket, ptype)
	}
	// Non-PUBLISH packets must carry their mandated flag bits; each
	// decoder validates its own.
	if ptype != PUBLISH && ptype != SUBSCRIBE && ptype != UNSUBSCRIBE &&
		ptype != PUBREL && flags != 0 {
		return nil, fmt.Errorf("%w: %v flags %#x", ErrProtocolViolation, ptype, flags)
	}
	if err := p.decode(flags, body); err != nil {
		return nil, err
	}
	return p, nil
}
