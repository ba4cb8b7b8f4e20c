package server

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package's run if a goroutine running this module's
// code outlives the tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }
