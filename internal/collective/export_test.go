package collective

import (
	"bytes"

	"multitree/internal/topology"
)

// ImportBinarySkippingDigests is ImportBinaryInto over an in-memory file
// with the root and chunk digest comparisons skipped, so that fuzzing
// reaches the record checks behind them.
func ImportBinarySkippingDigests(data []byte, topo *topology.Topology, opts BinaryImportOptions) (*Schedule, error) {
	ld := &loader{ra: bytes.NewReader(data), size: int64(len(data)), topo: topo, opts: opts, skipDigests: true}
	return ld.load()
}
