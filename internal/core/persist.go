package core

import (
	"encoding/json"
	"fmt"

	"relalg/internal/catalog"
	"relalg/internal/types"
	"relalg/internal/value"
)

// This file is the bridge between the engine and internal/storage: catalog
// metadata is serialized into each stored table's journaled meta blob, the
// catalog is replayed from those blobs at open, and loads are routed to paged
// tables instead of the in-memory partition slices. Scans need no bridge: a
// *storage.Table is already an exec.Table.

// persistCol is one column of the journaled schema blob.
type persistCol struct {
	Name string  `json:"name"`
	Type types.T `json:"type"`
}

// persistMeta is the JSON blob journaled with each stored table. It captures
// everything the catalog cannot rederive from the data: the declared schema,
// the partitioning column, and the statistics the optimizer uses. The row
// count is deliberately absent — the store's committed page index is the
// authority, so the two can never disagree after a crash.
type persistMeta struct {
	Cols         []persistCol       `json:"cols"`
	PartitionCol string             `json:"partition_col,omitempty"`
	Distinct     map[string]float64 `json:"distinct,omitempty"`
}

// encodeTableMeta serializes a catalog entry for the store's journal.
func encodeTableMeta(meta *catalog.TableMeta) ([]byte, error) {
	pm := persistMeta{
		Cols:         make([]persistCol, len(meta.Schema.Cols)),
		PartitionCol: meta.PartitionCol,
		Distinct:     meta.DistinctMap(),
	}
	for i, c := range meta.Schema.Cols {
		pm.Cols[i] = persistCol{Name: c.Name, Type: c.Type}
	}
	return json.Marshal(pm)
}

// decodeTableMeta rebuilds a catalog entry from a stored meta blob; rows is
// the store's committed row count.
func decodeTableMeta(name string, blob []byte, rows int64) (*catalog.TableMeta, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("core: stored table has no schema metadata")
	}
	var pm persistMeta
	if err := json.Unmarshal(blob, &pm); err != nil {
		return nil, fmt.Errorf("core: decode stored schema: %w", err)
	}
	cols := make([]catalog.Column, len(pm.Cols))
	for i, c := range pm.Cols {
		cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
	}
	meta := catalog.NewTableMeta(name, catalog.Schema{Cols: cols}, rows)
	meta.PartitionCol = pm.PartitionCol
	for col, n := range pm.Distinct {
		meta.SetDistinct(col, n)
	}
	return meta, nil
}

// replayCatalog rebuilds the catalog from the store's journaled metadata.
// Round-robin cursors resume at the committed row count, which reproduces
// the placement an uninterrupted process would have used.
func (db *Database) replayCatalog() error {
	for _, tb := range db.store.Tables() {
		meta, err := decodeTableMeta(tb.Name(), tb.Meta(), tb.Rows())
		if err != nil {
			return fmt.Errorf("core: table %q: %w", tb.Name(), err)
		}
		if err := db.cat.CreateTable(meta); err != nil {
			return err
		}
		db.nextRR[tb.Name()] = int(tb.Rows())
	}
	return nil
}

// registerTableLocked creates the storage behind a freshly registered
// catalog entry: a stored table when persistent, an in-memory partition
// slice otherwise. On storage failure the catalog entry is rolled back so
// DDL stays atomic from the caller's view. Callers hold db.mu.
func (db *Database) registerTableLocked(meta *catalog.TableMeta) error {
	if db.store == nil {
		db.tables[meta.Name] = make([][]value.Row, db.cl.Partitions())
		return nil
	}
	blob, err := encodeTableMeta(meta)
	if err == nil {
		_, err = db.store.CreateTable(meta.Name, db.cl.Partitions(), blob)
	}
	if err != nil {
		db.cat.Drop(meta.Name)
		return err
	}
	return nil
}

// appendStoredLocked places rows into a stored table's partitions with
// placeLocked, as the in-memory path does, and commits them durably. Callers
// hold db.mu.
func (db *Database) appendStoredLocked(name string, rows []value.Row) error {
	tb, ok := db.store.Table(name)
	if !ok {
		return fmt.Errorf("core: table %q has no storage", name)
	}
	for part, b := range db.placeLocked(name, rows, tb.Parts()) {
		if len(b) == 0 {
			continue
		}
		if err := tb.Append(part, b); err != nil {
			return err
		}
	}
	if err := tb.Commit(); err != nil {
		return err
	}
	db.cat.AddRowCount(name, int64(len(rows)))
	return nil
}

// persistMetaBlob journals the catalog entry's current schema + statistics
// so a reopened store rebuilds the same catalog state.
func (db *Database) persistMetaBlob(meta *catalog.TableMeta) error {
	tb, ok := db.store.Table(meta.Name)
	if !ok {
		return fmt.Errorf("core: table %q has no storage", meta.Name)
	}
	blob, err := encodeTableMeta(meta)
	if err != nil {
		return err
	}
	return tb.SetMeta(blob)
}
