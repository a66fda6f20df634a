package epochstep_test

import (
	"testing"

	"dyncq/internal/analysis/atest"
	"dyncq/internal/analysis/epochstep"
)

func TestInsideDyndb(t *testing.T) {
	atest.Run(t, "testdata", epochstep.Analyzer, "dyncq/internal/dyndb")
}

func TestSharedStoreCallers(t *testing.T) {
	atest.Run(t, "testdata", epochstep.Analyzer, "dyncq/pkg/dyncq")
}

func TestEnginePackageNeverWritesStore(t *testing.T) {
	atest.Run(t, "testdata", epochstep.Analyzer, "dyncq/internal/core")
}

func TestOutOfScopePackageIsClean(t *testing.T) {
	// The oracle fixture calls Insert directly on a private database;
	// its package is not in the shared-store scope, so nothing fires.
	atest.Run(t, "testdata", epochstep.Analyzer, "example.com/oracle")
}
