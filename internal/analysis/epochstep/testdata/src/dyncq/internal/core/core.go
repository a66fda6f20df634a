// Fixture for the engine-package scope of epochstep: a maintenance
// structure reads the store its owner hands it and never writes it.
package core

import "dyncq/internal/dyndb"

type engine struct{}

func (e *engine) rebuild(store *dyndb.Database) uint64 {
	return store.Epoch()
}

func (e *engine) selfDriving(store *dyndb.Database, u dyndb.Update) error {
	_, err := store.Apply(u) // want `direct store mutation`
	return err
}
