package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/cell"
)

// This file is the line-by-line Verilog importer that ParseVerilog
// replaced, kept as the oracle FuzzParseMatchesOracle and
// TestParseMatchesOracle hold the one-pass matcher to: the same
// accept/reject, the same error text and the same netlist. It is the
// old parse.go verbatim except that every package-level identifier
// carries an o/oracle prefix, and that cells are added through the
// exported AddRaw with plain string names (the bounded intern table
// those names went through deduplicated storage, not content).

// oracleParse reads back a structural module in the dialect produced by
// (*Netlist).Verilog — the format this repository ships failing netlists
// in — and reconstructs the netlist. Together with Verilog() it gives a
// lossless round trip for every cell kind, port, clock connection and
// DFF reset value, so failure models exported as circuit-level artifacts
// (§3.3.2) can be reloaded and simulated.
func oracleParse(src string) (*Netlist, error) {
	return oracleParseReader(strings.NewReader(src))
}

// oMaxLineBytes bounds a single source line. The dialect never produces
// lines anywhere near this long (the widest is the module header, one
// name per port); the cap keeps a hostile unstructured blob from being
// buffered wholesale.
const oMaxLineBytes = 1 << 20

// oracleParseReader is the streaming form of oracleParse: one pass
// over the input with a line scanner, no whole-file string splitting,
// and hand-rolled line matching (no regexp). Memory scales with the
// netlist, not with transient parse state — cells go straight into the
// Builder's arena, and the flat `wire [N:0] n;` declaration pre-sizes
// the net table and builder so a million-cell import does not pay for
// incremental growth.
func oracleParseReader(r io.Reader) (*Netlist, error) {
	p := &oracleParser{b: NewBuilder("")}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), oMaxLineBytes)
	ln := 0
	for sc.Scan() {
		ln++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || bytes.HasPrefix(line, oLitComment) {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", ln, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("line %d: %w", ln+1, err)
	}
	if !p.done {
		return nil, fmt.Errorf("missing endmodule")
	}
	if p.name == "" {
		return nil, fmt.Errorf("missing module header")
	}
	return p.finish()
}

type oracleParser struct {
	b    *Builder
	name string
	done bool

	// netsLo maps flat "n[i]" indices below its length to builder nets
	// (NoNet = not yet allocated); it grows geometrically up to the
	// declared wire-vector width (declNets) as indices are referenced,
	// so the common dense case is a single array whose cost is always
	// justified by actual references, never by the declaration alone.
	// netsHi catches sparse indices beyond the declaration.
	netsLo   []NetID
	declNets int
	netsHi   map[int]NetID

	// port bit nets by "name[i]" (or scalar "name").
	portBits map[string]NetID
	inputs   []oraclePort
	outputs  []oraclePort

	// output-side assigns: port bit -> flat net (resolved at finish).
	outAssigns map[string]int

	cells int

	// scratch buffers reused across lines (zero steady-state alloc).
	stripBuf []byte
	nameBuf  []byte
}

type oraclePort struct {
	name  string
	width int
}

// oMaxPortWidth bounds declared port widths. The widest real port in this
// repository is 32 bits; the cap keeps a hostile/corrupt declaration like
// `input wire [999999999:0]` from allocating gigabytes before Build can
// reject the module.
const oMaxPortWidth = 4096

// oMaxEagerNets bounds the dense net table (and with it what a hostile
// wire declaration can make the parser allocate); indices beyond it
// still work through the sparse overflow map. oEagerNetSeed is what the
// declaration alone may pre-allocate — one short line must not cost more
// than the netlist that justifies it, so the rest of the table grows
// geometrically as real references appear.
const (
	oMaxEagerNets = 1 << 22
	oEagerNetSeed = 1 << 16
)

// Literal fragments of the dialect, hoisted so the hot per-line matchers
// never rebuild them.
var (
	oLitComment   = []byte("//")
	oLitModule    = []byte("module")
	oLitWireVec   = []byte("wire [")
	oLitInputDecl = []byte("input wire ")
	oLitOutDecl   = []byte("output wire ")
	oLitDFFHead   = []byte("dff #(.INIT(1'b")
	oLitDFFName   = []byte(")) ")
	oLitDFFClk    = []byte(" (.clk(n[")
	oLitDFFD      = []byte("]), .d(n[")
	oLitDFFQ      = []byte("]), .q(n[")
	oLitAssign    = []byte("assign ")
	oLitEq        = []byte(" = ")
	oLitNetOpen   = []byte("n[")
	oLitNotPar2   = []byte("~((")
	oLitNotPar    = []byte("~(")
	oLitClkbuf    = []byte("clkbuf")
	oLitClkgate   = []byte("clkgate")
	oLitClkbufSp  = []byte("clkbuf ")
	oLitClkgateSp = []byte("clkgate ")
)

// Ordered operator tables. These replace map-ranged matching (whose
// iteration order is random) so that parse results and error messages
// are deterministic across runs.
var oNegOps = [...]struct {
	op   byte
	kind cell.Kind
}{{'&', cell.NAND2}, {'|', cell.NOR2}, {'^', cell.XNOR2}}

var oBinOps = [...]struct {
	op   byte
	kind cell.Kind
}{{'&', cell.AND2}, {'|', cell.OR2}, {'^', cell.XOR2}}

func oIsWordB(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func oIsSpaceB(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\f', '\r':
		return true
	}
	return false
}

// oCutUint consumes a leading ASCII digit run. Values that overflow int
// clamp to MaxInt with over=true; callers that mirror the strict paths
// reject over, the lenient paths accept the clamp.
func oCutUint(b []byte) (v int, rest []byte, ok, over bool) {
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		if v > (math.MaxInt-9)/10 {
			over = true
		} else {
			v = v*10 + int(b[i]-'0')
		}
		i++
	}
	if i == 0 {
		return 0, b, false, false
	}
	if over {
		v = math.MaxInt
	}
	return v, b[i:], true, over
}

// oNetRef matches `n[<digits>]` exactly.
func oNetRef(b []byte) (idx int, over, ok bool) {
	r, k := bytes.CutPrefix(b, oLitNetOpen)
	if !k {
		return 0, false, false
	}
	v, rest, k2, ov := oCutUint(r)
	if !k2 || len(rest) != 1 || rest[0] != ']' {
		return 0, false, false
	}
	return v, ov, true
}

// oPortRefOK matches `<word>[<digits>]` exactly (the shape of an output
// port bit reference; the key is the raw string, so only shape matters).
func oPortRefOK(b []byte) bool {
	j := 0
	for j < len(b) && oIsWordB(b[j]) {
		j++
	}
	if j == 0 || j >= len(b) || b[j] != '[' {
		return false
	}
	_, rest, ok, _ := oCutUint(b[j+1:])
	return ok && len(rest) == 1 && rest[0] == ']'
}

func (p *oracleParser) net(idx int) NetID {
	if idx >= 0 && idx < p.declNets {
		if idx >= len(p.netsLo) {
			// Grow the dense table geometrically toward the declared
			// width: amortized O(1) per reference, memory bounded by
			// 2x the highest index actually referenced.
			want := 2 * len(p.netsLo)
			if want <= idx {
				want = idx + 1
			}
			if want > p.declNets {
				want = p.declNets
			}
			grown := make([]NetID, want)
			copy(grown, p.netsLo)
			for i := len(p.netsLo); i < want; i++ {
				grown[i] = NoNet
			}
			p.netsLo = grown
		}
		if n := p.netsLo[idx]; n != NoNet {
			return n
		}
		n := p.b.Net()
		p.netsLo[idx] = n
		return n
	}
	if p.netsHi == nil {
		p.netsHi = make(map[int]NetID)
	}
	if n, ok := p.netsHi[idx]; ok {
		return n
	}
	n := p.b.Net()
	p.netsHi[idx] = n
	return n
}

// presize is the declaration-count prepass hook: Verilog() emits the
// flat `wire [N:0] n;` declaration before any cell line, so its width
// bounds the net count (and, to within port ties, the cell count) of
// the whole module before a single cell is built. Only a small seed is
// allocated up front; net() grows the dense table toward the declared
// width as references appear.
func (p *oracleParser) presize(width int) {
	if p.declNets != 0 || width <= 0 {
		return
	}
	if width > oMaxEagerNets {
		width = oMaxEagerNets
	}
	p.declNets = width
	seed := width
	if seed > oEagerNetSeed {
		seed = oEagerNetSeed
	}
	p.netsLo = make([]NetID, seed)
	for i := range p.netsLo {
		p.netsLo[i] = NoNet
	}
	p.b.Reserve(seed, 2*seed)
}

func (p *oracleParser) line(line []byte) error {
	if nm, ok := oMatchModule(line); ok {
		p.name = string(nm)
		return nil
	}
	if string(line) == "endmodule" {
		p.done = true
		return nil
	}
	if w, ok := oMatchWireDecl(line); ok {
		p.presize(w)
		return nil
	}
	if nm, dig, matched := oMatchPortDecl(line, oLitInputDecl); matched {
		width, err := oPortWidthB(dig, nm)
		if err != nil {
			return err
		}
		p.inputs = append(p.inputs, oraclePort{string(nm), width})
		return nil
	}
	if nm, dig, matched := oMatchPortDecl(line, oLitOutDecl); matched {
		width, err := oPortWidthB(dig, nm)
		if err != nil {
			return err
		}
		p.outputs = append(p.outputs, oraclePort{string(nm), width})
		return nil
	}
	if p.tryDFF(line) {
		return nil
	}
	if lhs, rhs, comment, ok := oSplitAssign(line); ok {
		return p.assign(lhs, rhs, comment)
	}
	return fmt.Errorf("unrecognized construct %q", line)
}

// oMatchModule matches `module <name> (` as a line prefix.
func oMatchModule(line []byte) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(line, oLitModule)
	if !ok {
		return nil, false
	}
	i := 0
	for i < len(rest) && oIsSpaceB(rest[i]) {
		i++
	}
	if i == 0 {
		return nil, false
	}
	j := i
	for j < len(rest) && oIsWordB(rest[j]) {
		j++
	}
	if j == i {
		return nil, false
	}
	k := j
	for k < len(rest) && oIsSpaceB(rest[k]) {
		k++
	}
	if k >= len(rest) || rest[k] != '(' {
		return nil, false
	}
	return rest[i:j], true
}

// oMatchWireDecl matches `wire [<digits>:0] n;` exactly and returns the
// declared width.
func oMatchWireDecl(line []byte) (int, bool) {
	rest, ok := bytes.CutPrefix(line, oLitWireVec)
	if !ok {
		return 0, false
	}
	hi, rest, ok, over := oCutUint(rest)
	if !ok || string(rest) != ":0] n;" {
		return 0, false
	}
	if over || hi == math.MaxInt {
		return math.MaxInt, true
	}
	return hi + 1, true
}

// oMatchPortDecl matches `<prefix>[<digits>:0] <word>;` with the range
// optional; on a match it returns the port name and the raw width digits
// (nil for a scalar port). A line whose prefix matches but whose shape
// does not simply fails to match, like the regexp-based matcher did.
func oMatchPortDecl(line, prefix []byte) (name, dig []byte, matched bool) {
	rest, ok := bytes.CutPrefix(line, prefix)
	if !ok {
		return nil, nil, false
	}
	if len(rest) > 0 && rest[0] == '[' {
		r2 := rest[1:]
		_, r3, ok3, _ := oCutUint(r2)
		if !ok3 {
			return nil, nil, false
		}
		r4, ok4 := bytes.CutPrefix(r3, []byte(":0] "))
		if !ok4 {
			return nil, nil, false
		}
		dig = r2[:len(r2)-len(r3)]
		rest = r4
	}
	j := 0
	for j < len(rest) && oIsWordB(rest[j]) {
		j++
	}
	if j == 0 || string(rest[j:]) != ";" {
		return nil, nil, false
	}
	return rest[:j], dig, true
}

func oPortWidthB(dig, portName []byte) (int, error) {
	if string(portName) == "n" {
		// "n" is the flat wire vector Verilog() emits; a port with that
		// name would alias it and break the round trip.
		return 0, fmt.Errorf("port name %q is reserved", portName)
	}
	if dig == nil {
		return 1, nil
	}
	hi, _, _, over := oCutUint(dig)
	if over || hi < 0 || hi >= oMaxPortWidth {
		return 0, fmt.Errorf("port %s: width %s out of range [1,%d]", portName, dig, oMaxPortWidth)
	}
	return hi + 1, nil
}

// tryDFF matches `dff #(.INIT(1'bX)) <name> (.clk(n[a]), .d(n[b]), .q(n[c]));`
// exactly, adding the flip-flop on success.
func (p *oracleParser) tryDFF(line []byte) bool {
	rest, ok := bytes.CutPrefix(line, oLitDFFHead)
	if !ok {
		return false
	}
	if len(rest) == 0 || (rest[0] != '0' && rest[0] != '1') {
		return false
	}
	init := rest[0] == '1'
	rest, ok = bytes.CutPrefix(rest[1:], oLitDFFName)
	if !ok {
		return false
	}
	j := 0
	for j < len(rest) && oIsWordB(rest[j]) {
		j++
	}
	if j == 0 {
		return false
	}
	nameB := rest[:j]
	rest, ok = bytes.CutPrefix(rest[j:], oLitDFFClk)
	if !ok {
		return false
	}
	clk, rest, ok, _ := oCutUint(rest)
	if !ok {
		return false
	}
	rest, ok = bytes.CutPrefix(rest, oLitDFFD)
	if !ok {
		return false
	}
	d, rest, ok, _ := oCutUint(rest)
	if !ok {
		return false
	}
	rest, ok = bytes.CutPrefix(rest, oLitDFFQ)
	if !ok {
		return false
	}
	q, rest, ok, _ := oCutUint(rest)
	if !ok || string(rest) != "]));" {
		return false
	}
	p.b.AddRaw(cell.DFF, string(nameB), []NetID{p.net(d)}, p.net(clk), p.net(q), init)
	p.cells++
	return true
}

// oSplitAssign matches `assign <lhs> = <rhs>; [// <comment>]` with the
// same lazy semantics as the old regexp: the first ` = ` with a
// non-empty lhs splits the sides, and the first `;` (with a non-empty
// rhs) whose tail is empty or a // comment ends the statement.
func oSplitAssign(line []byte) (lhs, rhs, comment []byte, ok bool) {
	rest, k := bytes.CutPrefix(line, oLitAssign)
	if !k {
		return nil, nil, nil, false
	}
	i := -1
	if len(rest) > 1 {
		if j := bytes.Index(rest[1:], oLitEq); j >= 0 {
			i = j + 1
		}
	}
	if i < 0 {
		return nil, nil, nil, false
	}
	lhs = bytes.TrimSpace(rest[:i])
	after := rest[i+3:]
	pos := 0
	for {
		j := bytes.IndexByte(after[pos:], ';')
		if j < 0 {
			return nil, nil, nil, false
		}
		s := pos + j
		pos = s + 1
		if s < 1 {
			continue // rhs must be non-empty
		}
		tail := after[s+1:]
		for len(tail) > 0 && oIsSpaceB(tail[0]) {
			tail = tail[1:]
		}
		if len(tail) == 0 {
			return lhs, bytes.TrimSpace(after[:s]), nil, true
		}
		if bytes.HasPrefix(tail, oLitComment) {
			return lhs, bytes.TrimSpace(after[:s]), bytes.TrimSpace(tail[2:]), true
		}
	}
}

// stripped returns b with every space removed, reusing a scratch buffer.
func (p *oracleParser) stripped(b []byte) []byte {
	buf := p.stripBuf[:0]
	for _, ch := range b {
		if ch != ' ' {
			buf = append(buf, ch)
		}
	}
	p.stripBuf = buf
	return buf
}

// oCur is a cursor over a space-stripped expression.
type oCur struct {
	b []byte
	i int
}

func (c *oCur) lit(s string) bool {
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

func (c *oCur) num() (int, bool) {
	v, rest, ok, over := oCutUint(c.b[c.i:])
	if !ok || over {
		return 0, false
	}
	c.i = len(c.b) - len(rest)
	return v, true
}

func (c *oCur) end() bool { return c.i == len(c.b) }

// parseMux matches `n[s]?n[b]:n[a]` on a space-stripped expression.
func (p *oracleParser) parseMux(rhs []byte) (s, b, a int, ok bool) {
	c := oCur{b: p.stripped(rhs)}
	if !c.lit("n[") {
		return
	}
	if s, ok = c.num(); !ok {
		return 0, 0, 0, false
	}
	if !c.lit("]?n[") {
		return 0, 0, 0, false
	}
	if b, ok = c.num(); !ok {
		return 0, 0, 0, false
	}
	if !c.lit("]:n[") {
		return 0, 0, 0, false
	}
	if a, ok = c.num(); !ok {
		return 0, 0, 0, false
	}
	if !c.lit("]") || !c.end() {
		return 0, 0, 0, false
	}
	return s, b, a, true
}

// parseAOI matches `~((n[a]&n[b])|n[c])` (AOI21) or `~((n[a]|n[b])&n[c])`
// (OAI21) on a space-stripped expression.
func (p *oracleParser) parseAOI(rhs []byte) (a, b, c3 int, kind cell.Kind, ok bool) {
	s := p.stripped(rhs)
	for _, alt := range [...]struct {
		inner, outer string
		kind         cell.Kind
	}{{"&", "|", cell.AOI21}, {"|", "&", cell.OAI21}} {
		c := oCur{b: s}
		if !c.lit("~((n[") {
			continue
		}
		a2, k := c.num()
		if !k || !c.lit("]"+alt.inner+"n[") {
			continue
		}
		b2, k := c.num()
		if !k || !c.lit("])"+alt.outer+"n[") {
			continue
		}
		c2, k := c.num()
		if !k || !c.lit("])") || !c.end() {
			continue
		}
		return a2, b2, c2, alt.kind, true
	}
	return 0, 0, 0, 0, false
}

// oOperand parses a (possibly space-padded) `n[i]` gate oOperand; strict
// about overflow, like the old strconv.Atoi-based path.
func oOperand(b []byte) (int, error) {
	idx, over, ok := oNetRef(bytes.TrimSpace(b))
	if !ok || over {
		return 0, fmt.Errorf("operand %q", b)
	}
	return idx, nil
}

// oSplitBin splits `lhs <op> rhs` when op occurs exactly once and both
// sides are net references.
func oSplitBin(b []byte, op byte) (int, int, bool) {
	i := bytes.IndexByte(b, op)
	if i < 0 || bytes.IndexByte(b[i+1:], op) >= 0 {
		return 0, 0, false
	}
	a, e1 := oOperand(b[:i])
	c, e2 := oOperand(b[i+1:])
	if e1 != nil || e2 != nil {
		return 0, 0, false
	}
	return a, c, true
}

// assign handles both the port-tie assigns and the combinational cells.
func (p *oracleParser) assign(lhs, rhs, comment []byte) error {
	outIdx, _, isNet := oNetRef(lhs)
	if !isNet {
		// Output tie: name[i] = n[k].
		if oPortRefOK(lhs) {
			idx, _, rOK := oNetRef(rhs)
			if !rOK {
				return fmt.Errorf("output assign rhs %q", rhs)
			}
			if p.outAssigns == nil {
				p.outAssigns = make(map[string]int)
			}
			p.outAssigns[string(lhs)] = idx
			return nil
		}
		return fmt.Errorf("assign lhs %q", lhs)
	}

	// Input tie: n[k] = portname or portname[i].
	if !bytes.ContainsAny(rhs, "&|^~?'") {
		if in, _, k := oNetRef(rhs); k {
			// n[a] = n[b]: a BUF or CLKBUF (comment disambiguates).
			kind := cell.BUF
			if bytes.HasPrefix(comment, oLitClkbuf) {
				kind = cell.CLKBUF
			}
			p.addComb(kind, comment, outIdx, in)
			return nil
		}
		// Port bit (or scalar port, e.g. the clock).
		if p.portBits == nil {
			p.portBits = make(map[string]NetID)
		}
		p.portBits[string(rhs)] = p.net(outIdx)
		return nil
	}

	switch {
	case string(rhs) == "1'b0":
		p.b.AddRaw(cell.TIE0, p.cellName(comment), nil, NoNet, p.net(outIdx), false)
	case string(rhs) == "1'b1":
		p.b.AddRaw(cell.TIE1, p.cellName(comment), nil, NoNet, p.net(outIdx), false)
	case bytes.IndexByte(rhs, '?') >= 0:
		// s ? b : a
		s, bb, aa, ok := p.parseMux(rhs)
		if !ok {
			return fmt.Errorf("mux %q", rhs)
		}
		p.addComb(cell.MUX2, comment, outIdx, aa, bb, s)
	case bytes.HasPrefix(rhs, oLitNotPar2) && bytes.IndexByte(rhs, '&') >= 0 && bytes.IndexByte(rhs, '|') >= 0:
		a, b2, c, kind, ok := p.parseAOI(rhs)
		if !ok {
			return fmt.Errorf("aoi/oai %q", rhs)
		}
		p.addComb(kind, comment, outIdx, a, b2, c)
	case bytes.HasPrefix(rhs, oLitNotPar):
		inner := bytes.TrimSuffix(bytes.TrimPrefix(rhs, oLitNotPar), []byte{')'})
		for _, e := range oNegOps {
			if a, b2, ok := oSplitBin(inner, e.op); ok {
				p.addComb(e.kind, comment, outIdx, a, b2)
				return nil
			}
		}
		return fmt.Errorf("negated gate %q", rhs)
	case rhs[0] == '~':
		a, err := oOperand(rhs[1:])
		if err != nil {
			return err
		}
		p.addComb(cell.INV, comment, outIdx, a)
	default:
		for _, e := range oBinOps {
			if a, b2, ok := oSplitBin(rhs, e.op); ok {
				kind := e.kind
				if kind == cell.AND2 && bytes.HasPrefix(comment, oLitClkgate) {
					kind = cell.CLKGATE
				}
				p.addComb(kind, comment, outIdx, a, b2)
				return nil
			}
		}
		return fmt.Errorf("gate %q", rhs)
	}
	return nil
}

// cellName resolves a cell's instance name from its `// name` comment.
func (p *oracleParser) cellName(comment []byte) string {
	c := bytes.TrimSpace(comment)
	// Strip clock-cell markers until none remain so that naming is
	// idempotent across export/parse round trips: Verilog() re-prefixes
	// the marker, and a single trim would leave a residual prefix that
	// shifts the name on every round.
	for {
		s := bytes.TrimPrefix(bytes.TrimPrefix(c, oLitClkbufSp), oLitClkgateSp)
		if len(s) == len(c) {
			break
		}
		c = s
	}
	if len(c) == 0 {
		p.nameBuf = append(p.nameBuf[:0], "cell$"...)
		p.nameBuf = strconv.AppendInt(p.nameBuf, int64(p.cells), 10)
		return string(p.nameBuf)
	}
	return string(c)
}

func (p *oracleParser) addComb(kind cell.Kind, comment []byte, out int, ins ...int) {
	var pins [cell.MaxArity]NetID
	for i, n := range ins {
		pins[i] = p.net(n)
	}
	p.b.AddRaw(kind, p.cellName(comment), pins[:len(ins)], NoNet, p.net(out), false)
	p.cells++
}

// finish wires ports and validates.
func (p *oracleParser) finish() (*Netlist, error) {
	// The first scalar input is the clock by convention of Verilog().
	declared := func(name string, width int) Bus {
		bus := make(Bus, width)
		for i := range bus {
			key := fmt.Sprintf("%s[%d]", name, i)
			if width == 1 {
				if n, ok := p.portBits[name]; ok {
					bus[i] = n
					continue
				}
			}
			n, ok := p.portBits[key]
			if !ok {
				// Unreferenced input bit: allocate a dangling net.
				n = p.b.Net()
			}
			bus[i] = n
		}
		return bus
	}

	clockDone := false
	for _, in := range p.inputs {
		if !clockDone && in.width == 1 && (in.name == "clk" || p.clockIsh(in.name)) {
			// Clock: the net tied from it is the clock root.
			n, ok := p.portBits[in.name]
			if !ok {
				n = p.b.Net()
			}
			p.b.declareClock(in.name, n)
			clockDone = true
			continue
		}
		p.b.declareInput(in.name, declared(in.name, in.width))
	}
	for _, out := range p.outputs {
		bus := make(Bus, out.width)
		for i := range bus {
			key := fmt.Sprintf("%s[%d]", out.name, i)
			idx, ok := p.outAssigns[key]
			if !ok {
				return nil, fmt.Errorf("output bit %s never assigned", key)
			}
			bus[i] = p.net(idx)
		}
		p.b.OutputBus(out.name, bus)
	}
	nl, err := p.b.Build()
	if err != nil {
		return nil, err
	}
	nl.Name = p.name
	return nl, nil
}

// clockIsh heuristically treats a 1-bit input named like a clock as the
// clock root.
func (p *oracleParser) clockIsh(portName string) bool {
	return strings.Contains(portName, "clk") || strings.Contains(portName, "clock")
}
