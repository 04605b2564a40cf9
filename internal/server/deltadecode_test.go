package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// sameDelta reports whether two decoded requests are equal with every
// float compared bit for bit (reflect.DeepEqual alone calls 0 and -0
// equal).
func sameDelta(a, b *TrustDeltaRequest) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	bits := math.Float64bits
	if bits(a.Epsilon) != bits(b.Epsilon) || bits(a.Damping) != bits(b.Damping) {
		return false
	}
	for i := range a.Edges {
		if bits(a.Edges[i].Weight) != bits(b.Edges[i].Weight) {
			return false
		}
	}
	return true
}

// checkDecodeMatches asserts that decodeTrustDelta gives what
// encoding/json's Decoder gives on a zero request — the same error
// string, or a bitwise-equal value — for the whole body, and for the
// body read through a MaxBytesReader of each limit in limits, as the
// handler reads it. It reports whether the single-pass parser accepted
// the whole body.
func checkDecodeMatches(t testing.TB, b []byte, limits ...int64) bool {
	t.Helper()
	var want, got TrustDeltaRequest
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	gotErr := decodeTrustDelta(b, nil, &got)
	compareDecodes(t, b, "", &want, &got, wantErr, gotErr)

	for _, limit := range limits {
		limited := func() io.ReadCloser {
			return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(b)), limit)
		}
		want, got = TrustDeltaRequest{}, TrustDeltaRequest{}
		wantErr = json.NewDecoder(limited()).Decode(&want)
		body, readErr := io.ReadAll(limited())
		gotErr = decodeTrustDelta(body, readErr, &got)
		compareDecodes(t, b, fmt.Sprintf(" under a %d-byte limit", limit), &want, &got, wantErr, gotErr)
	}
	return parseTrustDelta(b, &TrustDeltaRequest{})
}

func compareDecodes(t testing.TB, b []byte, where string, want, got *TrustDeltaRequest, wantErr, gotErr error) {
	t.Helper()
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("body %q%s: encoding/json error %v, decodeTrustDelta error %v", b, where, wantErr, gotErr)
	case wantErr != nil && wantErr.Error() != gotErr.Error():
		t.Fatalf("body %q%s: encoding/json error %q, decodeTrustDelta error %q", b, where, wantErr, gotErr)
	case wantErr == nil && !sameDelta(want, got):
		t.Fatalf("body %q%s:\nencoding/json    %+v\ndecodeTrustDelta %+v", b, where, *want, *got)
	}
}

func mustMarshal(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// deltaDecodeCase is one body of the oracle table; fast says whether the
// single-pass parser must accept it itself rather than fall back.
type deltaDecodeCase struct {
	name string
	body string
	fast bool
}

func deltaDecodeCases(t testing.TB) []deltaDecodeCase {
	full := TrustDeltaRequest{
		N:             4,
		Edges:         []trust.DeltaOp{{From: 0, To: 1, Weight: 0.8}, {From: 3, To: 2, Weight: 0}, {From: 2, To: 0, Weight: 1e-9}},
		Epsilon:       1e-9,
		MaxIter:       200,
		Damping:       0.1,
		Solve:         true,
		IncludeScores: true,
	}
	marshalled := mustMarshal(t, full)
	indented, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var encoded bytes.Buffer
	if err := json.NewEncoder(&encoded).Encode(full); err != nil {
		t.Fatal(err)
	}
	var many []trust.DeltaOp
	rng := xrand.New(3)
	for i := 0; i < 1000; i++ {
		many = append(many, trust.DeltaOp{From: rng.IntN(65536), To: rng.IntN(65536), Weight: 1 - rng.Float64()})
	}
	return []deltaDecodeCase{
		// What json.Marshal and json.Encoder emit.
		{"marshal, every field", marshalled, true},
		{"marshal, zero request (edges null)", mustMarshal(t, TrustDeltaRequest{}), true},
		{"marshal, empty edges", mustMarshal(t, TrustDeltaRequest{Edges: []trust.DeltaOp{}}), true},
		{"marshal, solve only", mustMarshal(t, TrustDeltaRequest{Solve: true, Edges: []trust.DeltaOp{}}), true},
		{"marshal, 1000 edges", mustMarshal(t, TrustDeltaRequest{N: 65536, Edges: many}), true},
		{"marshal indent", string(indented), true},
		{"encoder, trailing newline", encoded.String(), true},
		{"solve only, no edges key", `{"solve":true}`, true},
		{"empty object", `{}`, true},
		{"empty edge object", `{"edges":[{}]}`, true},
		{"exponent floats", `{"epsilon":1e-09,"damping":2.5E-1,"edges":[{"from":0,"to":1,"weight":1E+2}]}`, true},
		{"integer floats", `{"epsilon":1,"damping":0,"edges":[{"from":0,"to":1,"weight":-7}]}`, true},
		{"hand indented, tabs and CRLF", "\r\n\t{\r\n\t\"n\" : 3 ,\r\n\t\"edges\" : [ { \"from\" : 1 , \"to\" : 2 , \"weight\" : 0.5 } ] ,\"solve\" :\tfalse\r\n}\r\n", true},
		// Duplicates and null.
		{"duplicate scalar keys", `{"n":1,"solve":true,"n":2,"solve":false}`, true},
		{"duplicate edge keys", `{"edges":[{"from":1,"from":2,"to":0,"weight":0.5,"weight":0.25}]}`, true},
		{"duplicate edges", `{"edges":[{"from":1,"to":2,"weight":0.5},{"from":4,"to":5,"weight":0.75}],"edges":[{"from":3}]}`, false},
		{"edges then null edges", `{"edges":[{"from":1,"to":2,"weight":1}],"edges":null}`, false},
		{"null edges then edges", `{"edges":null,"edges":[{"from":1,"to":2,"weight":1}]}`, false},
		{"null edge element", `{"edges":[null,{"from":1,"to":2,"weight":1}]}`, false},
		{"null scalars", `{"n":null,"solve":null,"epsilon":null}`, false},
		{"null edge field", `{"edges":[{"from":null,"to":1,"weight":1}]}`, false},
		// Keys outside the exact names.
		{"unknown top-level key", `{"n":3,"extra":[1,{"a":"b"}],"solve":true}`, false},
		{"unknown edge key", `{"edges":[{"from":0,"to":1,"weight":1,"note":"x"}]}`, false},
		{"capitalised edge key", `{"edges":[{"From":4,"to":1,"weight":1}]}`, false},
		{"edge key at top level", `{"from":0,"n":2}`, false},
		{"capitalised top-level keys", `{"N":5,"Solve":true,"EDGES":[]}`, false},
		{"escaped key", `{"\u006e":5}`, false},
		{"escaped quote in key", `{"n\"":1}`, false},
		{"non-ASCII key", "{\"\xff\":1}", false},
		// Int literals.
		{"int field 1.0", `{"n":1.0}`, false},
		{"int field 1e2", `{"max_iter":1e2}`, false},
		{"int field -0", `{"n":-0,"edges":[{"from":-0,"to":0,"weight":0}]}`, true},
		{"int64 max", `{"n":9223372036854775807}`, true},
		{"int64 min", `{"max_iter":-9223372036854775808}`, true},
		{"ten-digit ints", `{"edges":[{"from":1234567890,"to":-9876543210,"weight":1}]}`, true},
		{"int64 overflow", `{"n":9223372036854775808}`, false},
		{"int64 underflow in edge", `{"edges":[{"from":-99999999999999999999,"to":0,"weight":1}]}`, false},
		// Float literals.
		{"weight 1e400", `{"edges":[{"from":0,"to":1,"weight":1e400}]}`, false},
		{"epsilon -1e400", `{"epsilon":-1e400}`, false},
		{"weight -0.0", `{"edges":[{"from":0,"to":1,"weight":-0.0}],"damping":-0}`, true},
		{"subnormal weight", `{"edges":[{"from":0,"to":1,"weight":5e-324},{"from":1,"to":0,"weight":2.2250738585072011e-308}]}`, true},
		{"underflow to zero", `{"epsilon":1e-400}`, true},
		{"largest float", `{"damping":1.7976931348623157e308}`, true},
		{"long mantissa", `{"epsilon":0.1000000000000000055511151231257827021181583404541015625}`, true},
		// Malformed numbers and literals.
		{"leading zero int", `{"n":01}`, false},
		{"leading zero float", `{"edges":[{"from":0,"to":1,"weight":00.5}]}`, false},
		{"bare minus", `{"n":-}`, false},
		{"trailing dot", `{"epsilon":1.}`, false},
		{"leading dot", `{"epsilon":.5}`, false},
		{"empty exponent", `{"epsilon":1e}`, false},
		{"plus sign", `{"epsilon":+1}`, false},
		{"NaN", `{"epsilon":NaN}`, false},
		{"Infinity", `{"epsilon":Infinity}`, false},
		{"hex", `{"n":0x10}`, false},
		{"short literal", `{"solve":tru}`, false},
		{"long literal", `{"solve":truex}`, false},
		{"capital literal", `{"solve":True}`, false},
		// Wrong types.
		{"string int", `{"n":"3"}`, false},
		{"bool int", `{"n":true}`, false},
		{"number bool", `{"solve":1}`, false},
		{"object edges", `{"edges":{"from":0}}`, false},
		{"array edge", `{"edges":[[0,1,0.5]]}`, false},
		// Structure.
		{"trailing comma in object", `{"n":1,}`, false},
		{"trailing comma in edges", `{"edges":[{"from":1,"to":2,"weight":1},]}`, false},
		{"missing comma", `{"n":1 "solve":true}`, false},
		{"missing colon", `{"n" 1}`, false},
		{"unterminated key", `{"n`, false},
		{"unterminated", `{"unterminated`, false},
		{"truncated", marshalled[:len(marshalled)/2], false},
		{"truncated before the last brace", marshalled[:len(marshalled)-1], false},
		{"trailing garbage", `{"n":1}xyz`, false},
		{"second value", `{"n":1} {"n":2}`, false},
		{"trailing whitespace", "{\"n\":1} \t\r\n", true},
		{"top-level null", `null`, false},
		{"top-level array", `[1]`, false},
		{"top-level number", `7`, false},
		{"empty body", ``, false},
		{"whitespace body", " \n", false},
		{"byte-order mark", "\xef\xbb\xbf{}", false},
		{"single quotes", `{'n':1}`, false},
	}
}

// TestTrustDeltaDecodeMatchesEncodingJSON is the differential oracle:
// every body decodes as encoding/json's Decoder decodes it, whole and
// under body limits that cut it, and the canonical shapes never need
// the fallback.
func TestTrustDeltaDecodeMatchesEncodingJSON(t *testing.T) {
	for _, tc := range deltaDecodeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			b := []byte(tc.body)
			n := int64(len(b))
			fast := checkDecodeMatches(t, b, 0, 1, n/2, n-1, n, n+1, 64)
			if fast != tc.fast {
				t.Fatalf("body %q: single-pass parser accepted=%v, want %v", b, fast, tc.fast)
			}
		})
	}
}

// FuzzTrustDeltaDecode checks the oracle's property on arbitrary bodies
// and body limits.
func FuzzTrustDeltaDecode(f *testing.F) {
	for _, tc := range deltaDecodeCases(f) {
		f.Add([]byte(tc.body), uint16(len(tc.body)))
	}
	f.Fuzz(func(t *testing.T, b []byte, limit uint16) {
		checkDecodeMatches(t, b, int64(limit))
	})
}

// randomFloat draws finite floats across the ranges json.Marshal
// formats differently: plain decimals, tiny and huge exponents,
// subnormals, integers, and both zeros.
func randomFloat(rng *xrand.RNG) float64 {
	switch rng.IntN(6) {
	case 0:
		return 1 - rng.Float64()
	case 1:
		return math.Float64frombits(rng.Uint64N(1 << 52)) // subnormal or zero
	case 2:
		return float64(rng.IntN(2000) - 1000)
	case 3:
		return math.Copysign(0, -1)
	default:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
}

// randomInt draws ints of every length, both signs and both extremes.
func randomInt(rng *xrand.RNG) int {
	switch rng.IntN(5) {
	case 0:
		return rng.IntN(65536)
	case 1:
		return -rng.IntN(1000)
	case 2:
		return math.MaxInt
	case 3:
		return math.MinInt
	default:
		return int(rng.Uint64())
	}
}

// TestMarshalledTrustDeltaTakesFastPath draws random requests, encodes
// each the three ways encoding/json can, and asserts the single-pass
// parser decodes every one itself to what encoding/json decodes. A
// parser that always fell back would pass the oracle; this test is what
// keeps the gain.
func TestMarshalledTrustDeltaTakesFastPath(t *testing.T) {
	rng := xrand.New(11)
	for i := 0; i < 500; i++ {
		req := TrustDeltaRequest{
			N:             randomInt(rng),
			Epsilon:       randomFloat(rng),
			MaxIter:       randomInt(rng),
			Damping:       randomFloat(rng),
			Solve:         rng.Bool(0.5),
			IncludeScores: rng.Bool(0.5),
		}
		if k := rng.IntN(12) - 2; k >= 0 {
			req.Edges = make([]trust.DeltaOp, k)
			for j := range req.Edges {
				req.Edges[j] = trust.DeltaOp{From: randomInt(rng), To: randomInt(rng), Weight: randomFloat(rng)}
			}
		}
		compact, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(req, "\t", " ")
		if err != nil {
			t.Fatal(err)
		}
		var encoded bytes.Buffer
		if err := json.NewEncoder(&encoded).Encode(req); err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{compact, indented, encoded.Bytes()} {
			var want, got TrustDeltaRequest
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatal(err)
			}
			if !parseTrustDelta(b, &got) {
				t.Fatalf("single-pass parser declined a marshalled request: %s", b)
			}
			if !sameDelta(&want, &got) {
				t.Fatalf("body %s:\nencoding/json %+v\nparser        %+v", b, want, got)
			}
		}
	}
}

// fillNonZero sets every field reachable from v to a non-zero value:
// each slice gets one element, each number and bool its own non-zero
// value. It fails on a kind the single-pass parser does not decode.
func fillNonZero(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0), next)
	case reflect.Int:
		v.SetInt(int64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) / 8)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("field of kind %s: teach parseTrustDelta and this test to decode it", v.Kind())
	}
}

// TestTrustDeltaParserKnowsEveryField fills every field of
// TrustDeltaRequest and trust.DeltaOp, so every json tag appears in the
// marshalled body, and asserts the single-pass parser decodes it
// itself. A field added to either struct without a case in the parser
// would send every body that carries it to the slower fallback; this
// test fails instead.
func TestTrustDeltaParserKnowsEveryField(t *testing.T) {
	var req TrustDeltaRequest
	next := 0
	fillNonZero(t, reflect.ValueOf(&req).Elem(), &next)
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(req), reflect.TypeOf(trust.DeltaOp{})} {
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if !bytes.Contains(b, []byte(`"`+name+`":`)) {
				t.Fatalf("%s.%s (json %q) missing from the filled body %s", typ.Name(), typ.Field(i).Name, name, b)
			}
		}
	}
	var want, got TrustDeltaRequest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !parseTrustDelta(b, &got) {
		t.Fatalf("single-pass parser declined a body with every field set: %s", b)
	}
	if !sameDelta(&want, &got) {
		t.Fatalf("body %s:\nencoding/json %+v\nparser        %+v", b, want, got)
	}
}

// TestTrustDeltaBodyNotSizedFromContentLength posts a small delta that
// declares a Content-Length far above its size and the body limit far
// above both, and asserts the handler allocates about what arrived, not
// what was declared: a client that sends only headers must not make the
// server hold -max-body bytes.
func TestTrustDeltaBodyNotSizedFromContentLength(t *testing.T) {
	const declared = 128 << 20
	s := New(Config{MaxBodyBytes: 1 << 30})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.DrainJobs(ctx); err != nil {
			t.Errorf("draining job workers: %v", err)
		}
	})
	body := `{"n":3,"edges":[{"from":0,"to":1,"weight":0.5}]}`
	req := httptest.NewRequest("POST", "/v1/trust/delta", strings.NewReader(body))
	req.ContentLength = declared
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.mux.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > declared/16 {
		t.Fatalf("handler allocated %d bytes for a %d-byte body declaring %d", alloc, len(body), declared)
	}
}

// seedChunkBody is the first POST body perfbench's trust-delta workload
// seeds its store with: 65,536 edges of the 65,536-node degree-20 graph
// at seed 42.
func seedChunkBody(tb testing.TB) []byte {
	g := trust.SparseErdosRenyi(xrand.New(42).Split("trust-delta").Split("graph"), 65536, 20)
	edges := g.Edges()[:65536]
	ops := make([]trust.DeltaOp, len(edges))
	for k, e := range edges {
		ops[k] = trust.DeltaOp{From: e.From, To: e.To, Weight: e.Weight}
	}
	b, err := json.Marshal(TrustDeltaRequest{N: g.N(), Edges: ops})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// BenchmarkTrustDeltaDecode decodes one seed-chunk body with the
// handler's decoder and with encoding/json, the decoder it replaces.
func BenchmarkTrustDeltaDecode(b *testing.B) {
	body := seedChunkBody(b)
	b.Run("parser", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req TrustDeltaRequest
			if err := decodeTrustDelta(body, nil, &req); err != nil || len(req.Edges) != 65536 {
				b.Fatalf("decoded %d edges: %v", len(req.Edges), err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req TrustDeltaRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil || len(req.Edges) != 65536 {
				b.Fatalf("decoded %d edges: %v", len(req.Edges), err)
			}
		}
	})
}
