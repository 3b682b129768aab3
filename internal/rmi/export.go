package rmi

import (
	"fmt"
	"sync"
)

// exportTable maps object ids to live objects, preserving identity: the
// same object exported twice receives the same id.
type exportTable struct {
	mu     sync.Mutex
	byID   map[uint64]*export
	byObj  map[any]uint64
	nextID uint64
}

type export struct {
	obj    any
	iface  string
	pinned bool // explicit exports survive DGC; auto-exports do not
}

func newExportTable() *exportTable {
	return &exportTable{
		byID:   make(map[uint64]*export),
		byObj:  make(map[any]uint64),
		nextID: FirstUserObjID,
	}
}

// add exports obj under iface and returns its id and the interface name it
// is exported under. An object has one export: exporting it again returns the
// existing id and the name the object was first exported under, which an
// automatic export — a remote object marshalled out as a result — takes as
// is, and an explicit one must repeat. Pinning is sticky (an auto-export
// later exported explicitly becomes pinned).
func (t *exportTable) add(obj any, iface string, pinned bool) (uint64, string, error) {
	if obj == nil {
		return 0, "", fmt.Errorf("rmi: export nil object")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byObj[obj]; ok {
		e := t.byID[id]
		if pinned && e.iface != iface {
			return 0, "", fmt.Errorf("rmi: object already exported as %q, cannot re-export as %q", e.iface, iface)
		}
		e.pinned = e.pinned || pinned
		return id, e.iface, nil
	}
	id := t.nextID
	t.nextID++
	t.byID[id] = &export{obj: obj, iface: iface, pinned: pinned}
	t.byObj[obj] = id
	return id, iface, nil
}

// addAt installs a system service at a reserved id.
func (t *exportTable) addAt(id uint64, obj any, iface string) error {
	if id >= FirstUserObjID {
		return fmt.Errorf("rmi: system export id %d not reserved", id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; ok {
		return fmt.Errorf("rmi: system id %d already exported", id)
	}
	t.byID[id] = &export{obj: obj, iface: iface, pinned: true}
	t.byObj[obj] = id
	return nil
}

// get looks up the export for id.
func (t *exportTable) get(id uint64) (*export, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byID[id]
	return e, ok
}

// collect removes an auto-exported object; pinned exports are retained.
// It reports whether the object was removed.
func (t *exportTable) collect(id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byID[id]
	if !ok || e.pinned {
		return false
	}
	delete(t.byID, id)
	delete(t.byObj, e.obj)
	return true
}

// remove unexports id unconditionally, reporting whether it existed.
func (t *exportTable) remove(id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byID[id]
	if !ok {
		return false
	}
	delete(t.byID, id)
	delete(t.byObj, e.obj)
	return true
}

// size returns the number of exported objects (system services included).
func (t *exportTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}
