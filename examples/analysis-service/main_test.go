package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"wasabi"
)

// FuzzUpload feeds arbitrary bodies to the upload handler: every one must
// be accepted (200), refused as too large (413) or refused as not a usable
// module (422) — never a panic or a server error.
func FuzzUpload(f *testing.F) {
	f.Add(workModule())
	f.Add(spinModule())
	f.Add([]byte("\x00asm\x01\x00\x00\x00"))
	f.Add([]byte("not a wasm module"))
	engine, err := wasabi.NewEngine(wasabi.WithFuel(fuelBudget), wasabi.WithMemoryLimitPages(4))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		svc := &service{engine: engine, modules: map[string]*wasabi.CompiledAnalysis{}}
		rec := httptest.NewRecorder()
		svc.handleUpload(rec, httptest.NewRequest(http.MethodPost, "/modules", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("upload of %d bytes: status %d: %s", len(body), rec.Code, rec.Body)
		}
	})
}
