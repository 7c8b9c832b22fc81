package bgpblackholing

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/netip"
	"testing"
	"time"
)

// FuzzAppendRecordLine: the NDJSON line appendRecordLine builds from an
// event is byte-identical to json.Marshal(NewEventRecord(ev)), and it
// declines only the documented cases (invalid prefix, a year outside
// 0–9999, a nonzero duration under a microsecond).
func FuzzAppendRecordLine(f *testing.F) {
	f.Add([]byte{10, 1, 2, 3}, 32, int64(1425211200), int64(0), int64(1425222000), int64(0), uint8(0), uint64(42), 2,
		[]byte{0, 0, 0, 0x0c, 0xbc, 2, 0, 0, 0xfd, 0xe9, 3, 0x0d, 0x1c, 0x27, 0x0f, 4, 0, 0, 0, 0, 5, 192, 0, 2, 1})
	f.Add(bytes.Repeat([]byte{0x20, 0x01, 0x0d, 0xb8}, 4), 48, int64(1425211200), int64(123456789), int64(1425211200), int64(500), uint8(7), uint64(math.MaxUint64), -1,
		[]byte{1, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 4, 0, 0, 0, 0, 1, 4, 0, 0, 0, 9, 4, 0, 0, 0, 3, 2, 0, 0, 0, 7, 2, 0, 0, 0, 5})
	f.Add([]byte{192, 0, 2, 0}, 33, int64(0), int64(0), int64(0), int64(1), uint8(0), uint64(0), 0, []byte(nil))
	f.Add([]byte{192, 0, 2, 0}, 24, int64(-62167219201), int64(0), int64(253402300800), int64(0), uint8(1), uint64(1), 1, []byte(nil))
	f.Add([]byte{}, 0, int64(1e9), int64(0), int64(1e9-1), int64(0), uint8(0), uint64(1), 1, []byte(nil))
	f.Fuzz(func(t *testing.T, addr []byte, bits int, sSec, sNsec, eSec, eNsec int64, flags uint8, seq uint64, detections int, sets []byte) {
		ip, _ := netip.AddrFromSlice(addr)
		ev := &Event{
			Prefix:       netip.PrefixFrom(ip, bits),
			Start:        time.Unix(sSec, sNsec),
			End:          time.Unix(eSec, eNsec),
			Seq:          seq,
			StartUnknown: flags&1 != 0,
			DirectFeed:   flags&2 != 0,
			SawNoExport:  flags&4 != 0,
			Detections:   detections,
			Providers:    map[ProviderRef]bool{},
			Users:        map[ASN]bool{},
			Communities:  map[Community]bool{},
			Platforms:    map[Platform]bool{},
			Peers:        map[netip.Addr]bool{},
		}
		for ; len(sets) >= 5; sets = sets[5:] {
			v := binary.BigEndian.Uint32(sets[1:5])
			switch sets[0] % 6 {
			case 0:
				ev.Providers[ProviderRef{Kind: ProviderAS, ASN: ASN(v)}] = true
			case 1:
				ev.Providers[ProviderRef{Kind: ProviderIXP, IXPID: int(int32(v))}] = true
			case 2:
				ev.Users[ASN(v)] = true
			case 3:
				ev.Communities[Community(v)] = true
			case 4:
				ev.Platforms[Platform(v%6)] = true
			case 5:
				ev.Peers[netip.AddrFrom4([4]byte(sets[1:5]))] = true
			}
		}

		got, ok := appendRecordLine([]byte("prior"), ev)
		if !ok {
			secs := math.Abs(ev.Duration().Seconds())
			outOfRange := func(t time.Time) bool { y := t.UTC().Year(); return y < 0 || y > 9999 }
			if ev.Prefix.IsValid() && !outOfRange(ev.Start) && !outOfRange(ev.End) && (secs == 0 || secs >= 1e-6) {
				t.Fatalf("declined an event it should encode: %+v", ev)
			}
			return
		}
		want, err := json.Marshal(NewEventRecord(ev))
		if err != nil {
			t.Fatalf("encoded %s, json.Marshal fails: %v", got, err)
		}
		if !bytes.Equal(got, append([]byte("prior"), want...)) {
			t.Fatalf("line differs from json.Marshal:\n got %s\nwant prior%s", got, want)
		}
	})
}

// TestAppendRecordLineReplayEvents: every event a replay produces is
// encoded without falling back, byte-identical to json.Marshal.
func TestAppendRecordLineReplayEvents(t *testing.T) {
	f := newFederationFixture(t)
	for _, ev := range f.events {
		got, ok := appendRecordLine(nil, ev)
		want, err := json.Marshal(NewEventRecord(ev))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("seq %d: ok=%v\n got %s\nwant %s", ev.Seq, ok, got, want)
		}
	}
}
