package lts

// Label interning. Labels synchronize (and compare, for bisimulation) by
// their Key() string; graphs, the explorer and the equivalence engine work
// on dense integer ids from a LabelTable instead, so an edge is two int32s
// and label comparisons are integer comparisons.

// LabelID is a dense integer id for a label key, assigned by a LabelTable.
// Two labels carry the same LabelID exactly when their Key() strings are
// equal, i.e. when they are equal for synchronization and bisimulation
// purposes.
type LabelID int32

// LabelTable interns label keys into dense LabelIDs. The zero value is not
// ready; use NewLabelTable. A table may be shared across several graphs so
// they speak the same id space. Not safe for concurrent interning; reading
// ids interned before is safe alongside other readers.
type LabelTable struct {
	ids map[string]LabelID
	// byLabel recalls the id of a label value already interned, so that
	// interning a known label builds no key string.
	byLabel map[Label]LabelID
	labels  []Label  // representative label per id
	names   []string // rendering (Label.String) per id
	// rendered[id] is the first id interned with id's rendering, so ids of
	// equal rendering share it; byName maps a rendering to that id.
	rendered []LabelID
	byName   map[string]LabelID
}

// NewLabelTable returns an empty interning table.
func NewLabelTable() *LabelTable {
	return &LabelTable{ids: make(map[string]LabelID, 16), byLabel: make(map[Label]LabelID, 16), byName: make(map[string]LabelID, 16)}
}

// Intern returns the dense id of l's key, assigning the next free id on
// first sight.
func (t *LabelTable) Intern(l Label) LabelID {
	if id, ok := t.byLabel[l]; ok {
		return id
	}
	key := l.Key()
	id, ok := t.ids[key]
	if !ok {
		id = t.add(key, l)
	}
	t.byLabel[l] = id
	return id
}

// InternKey interns a bare key with no representative label (used for
// pseudo-labels such as the equivalence checker's ε row). The returned id
// renders through Label as an internal action.
func (t *LabelTable) InternKey(key string) LabelID {
	if id, ok := t.ids[key]; ok {
		return id
	}
	return t.add(key, Internal())
}

func (t *LabelTable) add(key string, l Label) LabelID {
	id := LabelID(len(t.labels))
	t.ids[key] = id
	t.labels = append(t.labels, l)
	name := l.String()
	t.names = append(t.names, name)
	r, ok := t.byName[name]
	if !ok {
		r = id
		t.byName[name] = id
	}
	t.rendered = append(t.rendered, r)
	return id
}

// Label returns the representative label first interned under id.
func (t *LabelTable) Label(id LabelID) Label { return t.labels[id] }

// Name returns the rendering (Label.String) of the label interned under id.
func (t *LabelTable) Name(id LabelID) string { return t.names[id] }

// Rendered returns the first id interned with the rendering of id: two ids
// render alike exactly when their Rendered ids are equal.
func (t *LabelTable) Rendered(id LabelID) LabelID { return t.rendered[id] }

// Key returns the canonical key string interned under id — the
// content-derived total order the FSM compiler sorts minimized transition
// rows by, so compiled tables are reproducible independently of exploration
// and interning order.
func (t *LabelTable) Key(id LabelID) string { return t.labels[id].Key() }

// Kind returns the kind of the label interned under id.
func (t *LabelTable) Kind(id LabelID) LabelKind { return t.labels[id].Kind }

// Observable reports whether id was interned from an observable label.
func (t *LabelTable) Observable(id LabelID) bool { return t.labels[id].Kind != LInternal }

// Len returns the number of distinct interned keys.
func (t *LabelTable) Len() int { return len(t.labels) }

// LabelMap translates the label ids of one table into another's, interning
// each label into the target on its first translation, so the target's ids
// follow the order in which labels are first translated.
type LabelMap struct {
	from, to *LabelTable
	ids      []LabelID // target id per source id, -1 until translated
}

// NewLabelMap returns the translation from table from into table to.
func NewLabelMap(from, to *LabelTable) *LabelMap {
	return &LabelMap{from: from, to: to}
}

// ID returns the target id of source id.
func (m *LabelMap) ID(id LabelID) LabelID {
	for int(id) >= len(m.ids) {
		m.ids = append(m.ids, -1)
	}
	if m.ids[id] < 0 {
		m.ids[id] = m.to.Intern(m.from.Label(id))
	}
	return m.ids[id]
}
