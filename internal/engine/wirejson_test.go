package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"reflect"
	"strings"
	"testing"
)

// checkAgainstJSON holds the wire decoder to its contract on one body, with
// encoding/json as the oracle: DecodeRequestJSON, DecodeBatchJSON and both
// RouteKeyJSON modes accept exactly when json.Unmarshal into the same type
// accepts, the decoded values are DeepEqual (and marshal to the same bytes,
// which also pins the sign of zeros), and the key-only mode returns the
// RouteKey of the value json.Unmarshal produced — for a batch, FNV-1a over
// the members' RouteKeys. It reports whether the single-request decode
// accepted.
func checkAgainstJSON(t *testing.T, data []byte) bool {
	t.Helper()
	same := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s of %q:\n got %#v\nwant %#v", what, data, got, want)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s of %q marshals differently:\n got %s\nwant %s", what, data, gb, wb)
		}
	}
	agree := func(what string, err, oracle error) {
		t.Helper()
		if (err == nil) != (oracle == nil) {
			t.Fatalf("%s of %q: err %v, encoding/json err %v", what, data, err, oracle)
		}
	}

	var want, got Request
	oracle := json.Unmarshal(data, &want)
	agree("DecodeRequestJSON", DecodeRequestJSON(data, &got), oracle)
	key, err := RouteKeyJSON(data, false)
	agree("RouteKeyJSON", err, oracle)
	if oracle == nil {
		same("DecodeRequestJSON", got, want)
		same("RouteKeyJSON", key, RouteKey(&want))
	}

	var wantB, gotB BatchRequest
	oracleB := json.Unmarshal(data, &wantB)
	agree("DecodeBatchJSON", DecodeBatchJSON(data, &gotB), oracleB)
	key, err = RouteKeyJSON(data, true)
	agree("batch RouteKeyJSON", err, oracleB)
	if oracleB == nil {
		same("DecodeBatchJSON", gotB, wantB)
		h := fnv.New64a()
		var buf [8]byte
		for i := range wantB.Requests {
			binary.LittleEndian.PutUint64(buf[:], RouteKey(&wantB.Requests[i]))
			h.Write(buf[:])
		}
		same("batch RouteKeyJSON", key, h.Sum64())
	}
	return oracle == nil
}

// jsonTraps are the corners of json.Unmarshal's contract a hand-written
// decoder gets wrong by default, with whether a single request decode
// accepts each. testdata/fuzz/FuzzDecodeRerankJSON holds the same bodies as
// the fuzz target's seed corpus.
var jsonTraps = []struct {
	name   string
	body   string
	accept bool
}{
	{"valid", `{"user_features":[0.1,0.2],"items":[{"id":7,"features":[0.5,0.1],"cover":[1,0],"init_score":0.9}],"topic_sequences":[[{"features":[0.5,0.2]}],[]],"tenant":"acme"}`, true},

	// Key matching: case-insensitive under simple folding, after unescaping.
	{"key-upper-case", `{"USER_FEATURES":[1,2],"Items":[{"ID":3,"Init_Score":1}]}`, true},
	{"key-long-s", `{"itemſ":[{"id":1,"featureſ":[2]}],"topic_ſequences":[[{"FEATUREſ":[3]}]]}`, true},
	{"key-kelvin", `{"\u212a":[1],"tenant\u212a":5,"user_features":[2]}`, true},
	{"key-escaped", `{"\u0075ser_features":[1],"ite\u006ds":[{"\u0069d":4}],"tenan\u0074":"x"}`, true},
	{"key-invalid-utf8", "{\"user_feature\xff\":[1],\"tenant\":\"t\"}", true},

	// null and empty arrays.
	{"null-fields", `{"user_features":null,"items":null,"topic_sequences":null,"tenant":null}`, true},
	{"null-scalars", `{"items":[{"id":null,"init_score":null}]}`, true},
	{"empty-arrays", `{"user_features":[],"items":[],"topic_sequences":[[]]}`, true},
	{"null-elements", `{"user_features":[1,null],"items":[null,{"id":2,"features":[null]}],"topic_sequences":[null,[null]]}`, true},
	{"null-top-level", `null`, true},

	// Repeated keys decode into the existing value.
	{"repeated-keys", `{"user_features":[1,2,3],"user_features":[4],"user_features":[null,null,null,null]}`, true},
	{"repeated-items", `{"items":[{"id":1,"features":[1,2]},{"id":2,"cover":[5]}],"items":[{"features":[3]}],"items":[null,null]}`, true},
	{"repeated-fields", `{"items":[{"id":1,"id":2,"init_score":1,"init_score":null}],"tenant":"a","tenant":null}`, true},
	{"repeated-sequences", `{"topic_sequences":[[{"features":[1]},{"features":[2]}]],"topic_sequences":[[null],null]}`, true},

	// Number range.
	{"id-fraction", `{"items":[{"id":1.5}]}`, false},
	{"id-integral-fraction", `{"items":[{"id":1.0}]}`, false},
	{"id-exponent", `{"items":[{"id":1e2}]}`, false},
	{"id-overflow", `{"items":[{"id":9223372036854775808}]}`, false},
	{"id-min", `{"items":[{"id":-9223372036854775808},{"id":-0}]}`, true},
	{"float-overflow", `{"user_features":[1e309]}`, false},
	{"float-overflow-negative", `{"items":[{"init_score":-1.8e308}]}`, false},
	{"float-overflow-unkept", `{"topic_sequences":[[{"features":[17976931348623159e292]}]]}`, false},
	{"float-extremes", `{"user_features":[1.7976931348623157e308,4.9e-324,1e-400,-0,0.0000000001e317,1e0000000000000000000307]}`, true},

	// Unknown members and wrong types are still checked in full.
	{"unknown-members", `{"user_features":[1],"extra":{"a":[1,{"b":null}],"c":"\u00e9"},"more":[true,false,null,-1.5e3]}`, true},
	{"unknown-malformed", `{"user_features":[1],"extra":[1,]}`, false},
	{"unknown-bad-literal", `{"extra":tru}`, false},
	{"wrong-type-tenant", `{"tenant":5}`, false},
	{"wrong-type-unkept", `{"items":[{"id":1}],"topic_sequences":[[{"features":"x"}]]}`, false},
	{"wrong-type-cover", `{"items":[{"cover":{}}]}`, false},
	{"wrong-type-id", `{"items":[{"id":"1"}]}`, false},
	{"wrong-type-bool", `{"user_features":[true]}`, false},
	{"wrong-type-top-level", `[{"user_features":[1]}]`, false},

	// Strings.
	{"invalid-utf8-tenant", "{\"tenant\":\"a\xffb\xed\xa0\x80c\"}", true},
	{"surrogate-escapes", `{"tenant":"\ud800x\udc00\ud83d\ude00\ud800\ud800"}`, true},
	{"escapes", `{"tenant":"\"\\\/\b\f\n\r\t\u00e9"}`, true},
	{"bad-escape", `{"tenant":"\x"}`, false},
	{"control-character", "{\"tenant\":\"a\tb\"}", false},

	// Number grammar.
	{"leading-zero", `{"user_features":[01]}`, false},
	{"bare-minus", `{"user_features":[-]}`, false},
	{"bare-fraction", `{"user_features":[.5]}`, false},
	{"empty-exponent", `{"user_features":[1e]}`, false},
	{"signed-zero", `{"user_features":[-0.0e+0]}`, true},

	// Trailing bytes.
	{"trailing-garbage", `{"user_features":[1]} garbage`, false},
	{"trailing-object", `{"user_features":[1]}{"user_features":[2]}`, false},
	{"trailing-whitespace", "{\"user_features\":[1]} \t\r\n", true},
	{"empty-body", ``, false},
	{"whitespace-body", " \n", false},

	// The batch envelope; for a single request, "requests" is an unknown
	// member.
	{"batch", `{"requests":[{"user_features":[1],"items":[{"id":1}]},null,{"REQUESTS":1}]}`, true},
	{"batch-repeated", `{"requests":[{"user_features":[1,2]}],"Requests":[{"items":[{"id":5}]}]}`, true},
	{"batch-bad-member", `{"requests":[{"items":[{"id":0.5}]}]}`, true},
}

// TestDecodeRerankJSONTraps runs every contract trap through the oracle
// check and pins its expected outcome, so a trap cannot silently stop
// testing what its name says.
func TestDecodeRerankJSONTraps(t *testing.T) {
	for _, tc := range jsonTraps {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkAgainstJSON(t, []byte(tc.body)); got != tc.accept {
				t.Fatalf("accepted = %v, want %v", got, tc.accept)
			}
		})
	}
}

// TestDecodeRerankJSONDepth: encoding/json refuses nesting deeper than
// 10000 containers; so must the decoder, inside members it skips.
func TestDecodeRerankJSONDepth(t *testing.T) {
	nested := func(depth int) []byte {
		// The request object is one level; the unknown member holds the rest.
		return []byte(`{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`)
	}
	if !checkAgainstJSON(t, nested(maxDepth)) {
		t.Fatal("nesting at the limit refused")
	}
	if checkAgainstJSON(t, nested(maxDepth+1)) {
		t.Fatal("nesting past the limit accepted")
	}
}

// TestDecodeRerankJSONTypeErrorReportsOffset: errors name what was wrong
// and where, since the 400 body is what a client debugs from.
func TestDecodeRerankJSONTypeErrorReportsOffset(t *testing.T) {
	var req Request
	err := DecodeRequestJSON([]byte(`{"tenant":5}`), &req)
	if err == nil || !strings.Contains(err.Error(), "number into string") || !strings.Contains(err.Error(), "offset 10") {
		t.Fatalf("err %v, want a number-into-string error at offset 10", err)
	}
}

// FuzzDecodeRerankJSON is the differential fuzz target for the wire
// decoder: on every input, DecodeRequestJSON, DecodeBatchJSON and
// RouteKeyJSON must agree with json.Unmarshal — same acceptance, DeepEqual
// results, and the RouteKey of the oracle's value. Seed corpus:
// testdata/fuzz/FuzzDecodeRerankJSON, one entry per contract trap.
func FuzzDecodeRerankJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstJSON(t, data)
	})
}

// TestReadBody: the body arrives whole whatever its declared length — exact,
// absent, wrong or hostile, below and past maxPresize — and read errors pass
// through.
func TestReadBody(t *testing.T) {
	for _, n := range []int{3000, 3 * maxPresize} {
		body := bytes.Repeat([]byte("0123456789"), n/10)
		for _, size := range []int64{int64(len(body)), -1, 0, 10, 1 << 40} {
			got, err := ReadBody(bytes.NewReader(body), size, 1<<20)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("%d-byte body, size %d: %d bytes, err %v", len(body), size, len(got), err)
			}
		}
	}
	body := bytes.Repeat([]byte("0123456789"), 300)
	boom := errors.New("boom")
	if _, err := ReadBody(io.MultiReader(bytes.NewReader(body), failingReader{boom}), -1, 1<<20); err != boom {
		t.Fatalf("err %v, want the reader's error", err)
	}
}

// TestReadBodyDeclaredSizeNotTrusted: a client that declares a large body
// and sends ten bytes gets a buffer of at most maxPresize, not one of its
// declared length.
func TestReadBodyDeclaredSizeNotTrusted(t *testing.T) {
	got, err := ReadBody(strings.NewReader("0123456789"), 8<<20, 8<<20)
	if err != nil || string(got) != "0123456789" {
		t.Fatalf("got %q, err %v", got, err)
	}
	if cap(got) > maxPresize {
		t.Fatalf("declared size allocated %d bytes, want at most %d", cap(got), maxPresize)
	}
}

type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

// benchBody is a request of the benchmark's shape: 13 user features, 20
// items of 8 features and 5 topics, 5 topics × 10 behaviors.
func benchBody(b *testing.B) []byte {
	req := Request{UserFeatures: make([]float64, 13)}
	for i := range req.UserFeatures {
		req.UserFeatures[i] = float64(i) / 7
	}
	for i := 0; i < 20; i++ {
		it := Item{ID: 1000 + i, Features: make([]float64, 8), Cover: make([]float64, 5), InitScore: 1 / float64(i+1)}
		for j := range it.Features {
			it.Features[j] = float64(i*j) / 13
		}
		it.Cover[i%5] = 1
		req.Items = append(req.Items, it)
	}
	for j := 0; j < 5; j++ {
		var seq []SeqItem
		for k := 0; k < 10; k++ {
			si := SeqItem{Features: make([]float64, 8)}
			for m := range si.Features {
				si.Features[m] = float64(j*k+m) / 11
			}
			seq = append(seq, si)
		}
		req.TopicSequences = append(req.TopicSequences, seq)
	}
	data, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func BenchmarkDecodeRequestJSON(b *testing.B) {
	data := benchBody(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var req Request
		if err := DecodeRequestJSON(data, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteKeyJSON(b *testing.B) {
	data := benchBody(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RouteKeyJSON(data, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnmarshalRequest is the encoding/json baseline both decoders
// replace.
func BenchmarkUnmarshalRequest(b *testing.B) {
	data := benchBody(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var req Request
		if err := json.Unmarshal(data, &req); err != nil {
			b.Fatal(err)
		}
	}
}
