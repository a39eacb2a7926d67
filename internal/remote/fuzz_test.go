package remote

import (
	"reflect"
	"testing"
)

// fuzzDecoder runs one frame decoder against arbitrary payloads, seeded
// with canonical encodings. Two properties: the decoder never panics,
// and whatever it accepts re-encodes to a frame that decodes to the same
// value.
func fuzzDecoder[T any](f *testing.F, decode func([]byte) (T, error), encode func(T) []byte, seeds ...T) {
	for _, v := range seeds {
		f.Add(encode(v))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		v, err := decode(p)
		if err != nil {
			return
		}
		again, err := decode(encode(v))
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", v, err)
		}
		if !reflect.DeepEqual(v, again) {
			t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", again, v)
		}
	})
}

func FuzzDecodeRegister(f *testing.F) {
	fuzzDecoder(f, DecodeRegister, func(v Register) []byte { return v.Encode() },
		Register{}, Register{ClientID: "c1", Barrier: "phase", Parties: 4, Nonce: 7, Epoch: 3, Gen: 1})
}

func FuzzDecodeDirective(f *testing.F) {
	fuzzDecoder(f, DecodeDirective, func(v Directive) []byte { return v.Encode() },
		Directive{}, Directive{Barrier: "phase", Epoch: 3, Gen: 1, Nonce: 7, Tier: TierTimedPark, Shed: 1,
			PredictedStallNanos: 4e6, PollNanos: 5e5, ParkNanos: -1})
}

func FuzzDecodeHeartbeat(f *testing.F) {
	fuzzDecoder(f, DecodeHeartbeat, func(v Heartbeat) []byte { return v.Encode() },
		Heartbeat{}, Heartbeat{ClientID: "c1", Seq: 9})
}

func FuzzDecodeRelease(f *testing.F) {
	fuzzDecoder(f, DecodeRelease, func(v Release) []byte { return v.Encode() },
		Release{}, Release{Barrier: "phase", Epoch: 3, Gen: 1, Broken: true, Arrived: 2, Reason: "lease lost"})
}

func FuzzDecodeAdvisory(f *testing.F) {
	fuzzDecoder(f, DecodeAdvisory, func(v Advisory) []byte { return v.Encode() },
		Advisory{}, Advisory{Barrier: "phase", Epoch: 3, Gen: 1, Arrived: 2, Parties: 4})
}

func FuzzDecodeCancel(f *testing.F) {
	fuzzDecoder(f, DecodeCancel, func(v Cancel) []byte { return v.Encode() },
		Cancel{}, Cancel{ClientID: "c1", Barrier: "phase", Nonce: 7, Epoch: 3, Gen: 1, Reason: "deadline"})
}

func FuzzDecodeStatusReq(f *testing.F) {
	decode := func(p []byte) (struct{}, error) { return struct{}{}, DecodeStatusReq(p) }
	fuzzDecoder(f, decode, func(struct{}) []byte { return EncodeStatusReq() }, struct{}{})
}

func FuzzDecodeStatus(f *testing.F) {
	fuzzDecoder(f, DecodeStatus, EncodeStatus,
		[]BarrierStatus{}, []BarrierStatus{
			{Name: "a", Epoch: 3, Gen: 1, Arrived: 2, Parties: 4},
			{Name: "b", Epoch: 1, Parties: 2, Broken: true},
		})
}

func FuzzDecodeError(f *testing.F) {
	fuzzDecoder(f, DecodeError, func(v ErrorFrame) []byte { return v.Encode() },
		ErrorFrame{}, ErrorFrame{Code: ErrCodeParties, Barrier: "phase", Msg: "width mismatch"})
}
