package lint

import (
	"encoding/json"
	"io"
)

// JSONDiagnostic is the machine-readable shape of one finding, emitted by
// pdrvet -json as one object per line (JSON Lines): stable field names for
// CI annotators, independent of the human format's punctuation.
type JSONDiagnostic struct {
	Pkg      string `json:"pkg,omitempty"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// toJSON converts a Diagnostic to its wire shape.
func toJSON(d Diagnostic) JSONDiagnostic {
	return JSONDiagnostic{
		Pkg:      d.Pkg,
		File:     d.Pos.Filename,
		Line:     d.Pos.Line,
		Col:      d.Pos.Column,
		Analyzer: d.Analyzer,
		Message:  d.Message,
	}
}

// WriteJSON emits diags as JSON Lines: one object per diagnostic, each on
// its own line, in the input order (Run already sorted by position).
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	enc := json.NewEncoder(w)
	for _, d := range diags {
		if err := enc.Encode(toJSON(d)); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSON parses JSON Lines produced by WriteJSON back into wire
// diagnostics — the round-trip contract -json consumers rely on.
func ReadJSON(r io.Reader) ([]JSONDiagnostic, error) {
	dec := json.NewDecoder(r)
	var out []JSONDiagnostic
	for dec.More() {
		var d JSONDiagnostic
		if err := dec.Decode(&d); err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
