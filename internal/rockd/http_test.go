package rockd

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteResponseMatchesEncoder: the envelope writer that copies the
// pre-marshaled payloads verbatim writes exactly the bytes and headers
// the generic JSON encoder writes.
func TestWriteResponseMatchesEncoder(t *testing.T) {
	report, err := json.Marshal(map[string]any{
		"types": []string{"A<B>", "C&D"}, "edges": []int{1, 2, 3}, "note": "x y",
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := json.Marshal(map[string]int{"total_ns": 42})
	if err != nil {
		t.Fatal(err)
	}
	for name, resp := range map[string]*Response{
		"stats":     {Digest: "ab", Source: "cold", Class: "interactive", QueueWaitNS: 7, AnalysisNS: 9, TotalNS: 11, Report: report, Stats: stats},
		"no stats":  {Digest: "cd", Source: "hot", Report: report},
		"coalesced": {Digest: "ef", Source: "warm", Coalesced: true, Class: "batch", Report: report, Stats: stats},
	} {
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(want, http.StatusOK, resp)
		writeResponse(got, resp)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%s: status/header %d %q, want %d %q", name, got.Code,
				got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: body\n%s\nwant\n%s", name, got.Body.Bytes(), want.Body.Bytes())
		}
	}
}

// TestReadBody: a declared length within the limit is read into an
// exact buffer, a short body fails, and bodies without a declared length
// or over the limit take the bounded streaming read.
func TestReadBody(t *testing.T) {
	data := bytes.Repeat([]byte("rock"), 300)
	read := func(body io.Reader, declared, limit int64) ([]byte, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/analyze", body)
		r.ContentLength = declared
		return readBody(httptest.NewRecorder(), r, limit)
	}
	got, err := read(bytes.NewReader(data), int64(len(data)), 4096)
	if err != nil || !bytes.Equal(got, data) || cap(got) != len(data) {
		t.Fatalf("declared length: %d bytes (cap %d), err %v", len(got), cap(got), err)
	}
	if got, err = read(bytes.NewReader(data), -1, 4096); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("undeclared length: %d bytes, err %v", len(got), err)
	}
	if _, err = read(bytes.NewReader(data[:100]), int64(len(data)), 4096); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: err %v, want io.ErrUnexpectedEOF", err)
	}
	var tooLarge *http.MaxBytesError
	for _, declared := range []int64{int64(len(data)), -1} {
		if _, err = read(bytes.NewReader(data), declared, 1000); !errors.As(err, &tooLarge) {
			t.Fatalf("declared %d over the limit: err %v, want *http.MaxBytesError", declared, err)
		}
	}
}
