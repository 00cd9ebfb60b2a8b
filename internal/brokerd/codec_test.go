package brokerd

import (
	"bytes"
	"io"
	"testing"
	"time"
)

var fuzzOps = []string{OpPub, OpSub, OpAck, OpReq, OpPing, OpOK, OpErr, OpMsg, OpClose, OpStats}

// FuzzFrameRoundTrip checks WriteFrame→ReadFrame is the identity for
// any field values: the binary encoding must carry every string, body
// and timestamp exactly.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint64(42), 3, 8, int64(1700000000_000000001), true, "rai", "tasks", "", []byte("job payload"))
	f.Add(uint8(7), uint64(9), uint64(0), 0, 0, int64(0), false, "", "", "boom", []byte{})
	f.Add(uint8(10), uint64(1<<63), uint64(1<<62), -1, -5, int64(-1), true, "log_7#x", "worker#3", "", []byte{0, 0xff, 0x80})
	f.Fuzz(func(t *testing.T, opIdx uint8, seq, msgID uint64, attempts, maxInFlight int, nanos int64, hasTime bool, topic, channel, errStr string, body []byte) {
		in := &Frame{
			Op:          fuzzOps[int(opIdx)%len(fuzzOps)],
			Seq:         seq,
			MsgID:       msgID,
			Attempts:    attempts,
			MaxInFlight: maxInFlight,
			Topic:       topic,
			Channel:     channel,
			Error:       errStr,
			Body:        body,
		}
		if hasTime {
			in.Time = time.Unix(0, nanos).UTC()
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			t.Fatalf("encode: %v", err)
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if out.Op != in.Op || out.Seq != in.Seq || out.MsgID != in.MsgID ||
			out.Attempts != in.Attempts || out.MaxInFlight != in.MaxInFlight ||
			out.Topic != in.Topic || out.Channel != in.Channel || out.Error != in.Error {
			t.Fatalf("fields drifted:\n in=%+v\nout=%+v", in, out)
		}
		if !bytes.Equal(out.Body, in.Body) {
			t.Fatalf("body %q != %q", out.Body, in.Body)
		}
		if !out.Time.Equal(in.Time) {
			t.Fatalf("time %v != %v", out.Time, in.Time)
		}
		if buf.Len() != 0 {
			t.Fatalf("%d trailing bytes after decode", buf.Len())
		}
	})
}

// FuzzBinaryDecode feeds arbitrary length-prefixed payloads to the
// binary decoder: malformed frames must come back as errors, never
// panics or hangs.
func FuzzBinaryDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0xff}, binHeaderLen))
	// A valid PUB frame as a seed so the corpus mutates from real shapes.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Op: OpPub, Seq: 1, Topic: "rai", Body: []byte("x")}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes()[4:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > maxFrameSize {
			t.Skip()
		}
		var hdr [4]byte
		hdr[0] = byte(len(payload) >> 24)
		hdr[1] = byte(len(payload) >> 16)
		hdr[2] = byte(len(payload) >> 8)
		hdr[3] = byte(len(payload))
		r := io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(payload))
		out, err := ReadFrame(r)
		if err == nil {
			// Whatever decoded must re-encode cleanly.
			var buf bytes.Buffer
			if err := WriteFrame(&buf, out); err != nil {
				t.Fatalf("decoded frame %+v will not re-encode: %v", out, err)
			}
		}
	})
}

func TestStatsFrameBinaryRoundTrip(t *testing.T) {
	in := &Frame{Op: OpOK, Seq: 3, Stats: []TopicStats{
		{Topic: "rai", Backlog: 2, Channels: []ChannelStats{
			{Channel: "tasks", Depth: 5, InFlight: 1, Subscribers: 3},
		}},
		{Topic: "log_1#x", Backlog: 0},
	}}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Stats) != 2 || out.Stats[0].Topic != "rai" || len(out.Stats[0].Channels) != 1 ||
		out.Stats[0].Channels[0].Depth != 5 || out.Stats[1].Topic != "log_1#x" {
		t.Fatalf("stats round trip = %+v", out.Stats)
	}
}

func TestBinaryDecodeMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty payload":    {},
		"short header":     bytes.Repeat([]byte{0}, binHeaderLen-1),
		"unknown op":       append([]byte{0xee}, bytes.Repeat([]byte{0}, binHeaderLen-1)...),
		"field past end":   append(append([]byte{1}, bytes.Repeat([]byte{0}, binHeaderLen-1)...), 0xff, 0xff, 0xff, 0xff),
		"truncated length": append(append([]byte{1}, bytes.Repeat([]byte{0}, binHeaderLen-1)...), 0, 0),
	}
	for name, payload := range cases {
		var buf bytes.Buffer
		var hdr [4]byte
		hdr[3] = byte(len(payload))
		hdr[2] = byte(len(payload) >> 8)
		buf.Write(hdr[:])
		buf.Write(payload)
		if _, err := ReadFrame(&buf); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
