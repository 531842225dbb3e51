package cataero

import (
	"encoding/json"
	"fmt"
	"os"

	"cataero/internal/core"
)

// BodySpec names a body shape declaratively ("sphere", "sphere-cone",
// "hyperboloid") with its dimensions; it stands in for the geometry.Body
// interface in case files.
type BodySpec = core.BodySpec

// ParseCase decodes a JSON case file into a Problem. Unknown solver
// classes, chemistries, body kinds or toggle values are errors; fields left
// out of the file keep their zero values and resolve through the session
// defaults exactly like an in-code Problem.
func ParseCase(data []byte) (Problem, error) {
	var p Problem
	if err := json.Unmarshal(data, &p); err != nil {
		return Problem{}, fmt.Errorf("cataero: parse case: %w", err)
	}
	return p, nil
}

// LoadCase reads and decodes a JSON case file.
func LoadCase(path string) (Problem, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Problem{}, fmt.Errorf("cataero: load case: %w", err)
	}
	p, err := ParseCase(data)
	if err != nil {
		return Problem{}, fmt.Errorf("cataero: load case %s: %w", path, err)
	}
	return p, nil
}

// SaveCase writes the problem as an indented JSON case file. Problems whose
// body is not a named geometry shape, or whose configuration lives in
// function fields (Standoff, Mu, K), cannot be saved declaratively; the
// function fields are silently dropped and an unnamed body is an error.
func SaveCase(path string, p Problem) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("cataero: save case: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
