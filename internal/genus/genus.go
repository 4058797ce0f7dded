// Package genus provides the function and component taxonomy that ICDB
// uses to classify component implementations, mirroring the GENUS generic
// component library the paper depends on [Dutt 88].
//
// A Function is an abstract microarchitecture operation (ADD, INC, STORAGE,
// ...). A ComponentType is the name of a standard microarchitecture
// component (Counter, Register, Adder_Subtractor, ...). Every component
// type declares the set of functions it can execute; synthesis tools query
// by function and ICDB answers with component types and implementations.
package genus

import (
	"fmt"
	"slices"
	"strings"
)

// Function names an abstract operation a microarchitecture component may
// perform. The vocabulary follows Section 2 of Appendix B.
type Function string

// Logic operations.
const (
	FuncAND  Function = "AND"
	FuncOR   Function = "OR"
	FuncNOT  Function = "NOT"
	FuncNAND Function = "NAND"
	FuncNOR  Function = "NOR"
	FuncXOR  Function = "XOR"
	FuncXNOR Function = "XNOR"
)

// Arithmetic operations.
const (
	FuncADD Function = "ADD"
	FuncSUB Function = "SUB"
	FuncMUL Function = "MUL"
	FuncDIV Function = "DIV"
	FuncINC Function = "INC"
	FuncDEC Function = "DEC"
)

// Relational operations.
const (
	FuncEQ  Function = "EQ"
	FuncNEQ Function = "NEQ"
	FuncGT  Function = "GT"
	FuncGE  Function = "GE"
	FuncLT  Function = "LT"
	FuncLE  Function = "LE"
)

// Select operations.
const (
	// FuncMuxSCL selects by control line.
	FuncMuxSCL Function = "MUX_SCL"
	// FuncMuxSCG selects by guard value.
	FuncMuxSCG Function = "MUX_SCG"
)

// Shift operations.
const (
	FuncSHL1  Function = "SHL1"
	FuncSHR1  Function = "SHR1"
	FuncROTL1 Function = "ROTL1"
	FuncROTR1 Function = "ROTR1"
	FuncASHL1 Function = "ASHL1"
	FuncASHR1 Function = "ASHR1"
	FuncSHL   Function = "SHL"
	FuncSHR   Function = "SHR"
	FuncROTL  Function = "ROTL"
	FuncROTR  Function = "ROTR"
	FuncASHL  Function = "ASHL"
	FuncASHR  Function = "ASHR"
)

// Coding functions.
const (
	FuncENCODE Function = "ENCODE"
	FuncDECODE Function = "DECODE"
)

// Interface functions.
const (
	FuncBUF      Function = "BUF"
	FuncClkDr    Function = "CLK_DR"
	FuncSchmTgr  Function = "SCHM_TGR"
	FuncTriState Function = "TRI_STATE"
)

// Wire functions.
const (
	FuncPORT   Function = "PORT"
	FuncBUS    Function = "BUS"
	FuncWireOr Function = "WIRE_OR"
)

// Switch-box functions.
const (
	FuncCONCAT  Function = "CONCAT"
	FuncEXTRACT Function = "EXTRACT"
)

// Clocking and delay.
const (
	FuncClkGen Function = "CLK_GEN"
	FuncDELAY  Function = "DELAY"
)

// Memory operations.
const (
	FuncLOAD    Function = "LOAD"
	FuncSTORE   Function = "STORE"
	FuncSTORAGE Function = "STORAGE"
	FuncMEMORY  Function = "MEMORY"
	FuncREAD    Function = "READ"
	FuncWRITE   Function = "WRITE"
	FuncPUSH    Function = "PUSH"
	FuncPOP     Function = "POP"
	FuncCOUNTER Function = "COUNTER"
)

// AllFunctions returns the complete predefined function vocabulary in
// deterministic order.
func AllFunctions() []Function {
	fs := []Function{
		FuncAND, FuncOR, FuncNOT, FuncNAND, FuncNOR, FuncXOR, FuncXNOR,
		FuncADD, FuncSUB, FuncMUL, FuncDIV, FuncINC, FuncDEC,
		FuncEQ, FuncNEQ, FuncGT, FuncGE, FuncLT, FuncLE,
		FuncMuxSCL, FuncMuxSCG,
		FuncSHL1, FuncSHR1, FuncROTL1, FuncROTR1, FuncASHL1, FuncASHR1,
		FuncSHL, FuncSHR, FuncROTL, FuncROTR, FuncASHL, FuncASHR,
		FuncENCODE, FuncDECODE,
		FuncBUF, FuncClkDr, FuncSchmTgr, FuncTriState,
		FuncPORT, FuncBUS, FuncWireOr,
		FuncCONCAT, FuncEXTRACT,
		FuncClkGen, FuncDELAY,
		FuncLOAD, FuncSTORE, FuncSTORAGE, FuncMEMORY, FuncREAD, FuncWRITE,
		FuncPUSH, FuncPOP, FuncCOUNTER,
	}
	return fs
}

var functionSet = func() map[Function]bool {
	m := make(map[Function]bool)
	for _, f := range AllFunctions() {
		m[f] = true
	}
	return m
}()

// IsFunction reports whether name (case-insensitive) is a predefined
// function name.
func IsFunction(name string) bool {
	return functionSet[Function(strings.ToUpper(name))]
}

// NormalizeFunction upper-cases name and validates it against the
// predefined vocabulary.
func NormalizeFunction(name string) (Function, error) {
	f := Function(strings.ToUpper(strings.TrimSpace(name)))
	// Operator aliases used in Appendix B, e.g. ADD(+), INC(++).
	switch f {
	case "+":
		f = FuncADD
	case "-":
		f = FuncSUB
	case "*":
		f = FuncMUL
	case "/":
		f = FuncDIV
	case "++":
		f = FuncINC
	case "--":
		f = FuncDEC
	}
	if !functionSet[f] {
		return "", fmt.Errorf("genus: unknown function %q", name)
	}
	return f, nil
}

// ComponentType names a standard microarchitecture component. The list
// follows Section 2 of Appendix B.
type ComponentType string

// Predefined component types.
const (
	CompLogicUnit       ComponentType = "Logic_unit"
	CompMuxSCL          ComponentType = "Mux_scl"
	CompMuxSCG          ComponentType = "Mux_scg"
	CompDecode          ComponentType = "Decode"
	CompEncode          ComponentType = "Encode"
	CompComparator      ComponentType = "Comparator"
	CompShifter         ComponentType = "Shifter"
	CompBarrelShifter   ComponentType = "Barrel_shifter"
	CompAdderSubtractor ComponentType = "Adder_Subtractor"
	CompALU             ComponentType = "ALU"
	CompMultiplier      ComponentType = "Multiplier"
	CompDivider         ComponentType = "Divider"
	CompRegister        ComponentType = "Register"
	CompCounter         ComponentType = "Counter"
	CompRegisterFile    ComponentType = "Register_file"
	CompStack           ComponentType = "Stack"
	CompMemory          ComponentType = "Memory"
	CompBuffer          ComponentType = "Buffer"
	CompClockDriver     ComponentType = "Clock_driver"
	CompSchmittTrigger  ComponentType = "Schmitt_trigger"
	CompTriState        ComponentType = "Tri_state"
	CompPort            ComponentType = "Port"
	CompBus             ComponentType = "Bus"
	CompWireOr          ComponentType = "Wire_or"
	CompConcat          ComponentType = "Concat"
	CompExtract         ComponentType = "Extract"
	CompClockGenerator  ComponentType = "Clock_generator"
	CompDelay           ComponentType = "Delay"
)

// AllComponentTypes returns the predefined component types in
// deterministic order.
func AllComponentTypes() []ComponentType {
	return []ComponentType{
		CompLogicUnit, CompMuxSCL, CompMuxSCG, CompDecode, CompEncode,
		CompComparator, CompShifter, CompBarrelShifter, CompAdderSubtractor,
		CompALU, CompMultiplier, CompDivider, CompRegister, CompCounter,
		CompRegisterFile, CompStack, CompMemory, CompBuffer, CompClockDriver,
		CompSchmittTrigger, CompTriState, CompPort, CompBus, CompWireOr,
		CompConcat, CompExtract, CompClockGenerator, CompDelay,
	}
}

// componentFunctions maps each predefined component type to the full set
// of functions implementations of that type may execute. Individual
// implementations may execute a subset (e.g. an up-only counter has no
// DEC).
var componentFunctions = map[ComponentType][]Function{
	CompLogicUnit:       {FuncAND, FuncOR, FuncNOT, FuncNAND, FuncNOR, FuncXOR, FuncXNOR},
	CompMuxSCL:          {FuncMuxSCL},
	CompMuxSCG:          {FuncMuxSCG},
	CompDecode:          {FuncDECODE},
	CompEncode:          {FuncENCODE},
	CompComparator:      {FuncEQ, FuncNEQ, FuncGT, FuncGE, FuncLT, FuncLE},
	CompShifter:         {FuncSHL1, FuncSHR1, FuncROTL1, FuncROTR1, FuncASHL1, FuncASHR1},
	CompBarrelShifter:   {FuncSHL, FuncSHR, FuncROTL, FuncROTR, FuncASHL, FuncASHR},
	CompAdderSubtractor: {FuncADD, FuncSUB},
	CompALU:             {FuncADD, FuncSUB, FuncAND, FuncOR, FuncNOT, FuncXOR, FuncINC, FuncDEC},
	CompMultiplier:      {FuncMUL},
	CompDivider:         {FuncDIV},
	CompRegister:        {FuncSTORAGE, FuncLOAD, FuncSTORE},
	CompCounter:         {FuncINC, FuncDEC, FuncCOUNTER, FuncSTORAGE, FuncLOAD, FuncSTORE},
	CompRegisterFile:    {FuncSTORAGE, FuncREAD, FuncWRITE},
	CompStack:           {FuncPUSH, FuncPOP, FuncSTORAGE},
	CompMemory:          {FuncMEMORY, FuncREAD, FuncWRITE, FuncSTORAGE},
	CompBuffer:          {FuncBUF},
	CompClockDriver:     {FuncClkDr},
	CompSchmittTrigger:  {FuncSchmTgr},
	CompTriState:        {FuncTriState},
	CompPort:            {FuncPORT},
	CompBus:             {FuncBUS},
	CompWireOr:          {FuncWireOr},
	CompConcat:          {FuncCONCAT},
	CompExtract:         {FuncEXTRACT},
	CompClockGenerator:  {FuncClkGen},
	CompDelay:           {FuncDELAY},
}

// Functions returns the functions executable by component type ct, or nil
// if ct is not predefined.
func Functions(ct ComponentType) []Function {
	fs := componentFunctions[ct]
	out := make([]Function, len(fs))
	copy(out, fs)
	return out
}

// ComponentsForFunctions returns every predefined component type whose
// function set includes all of fns, in deterministic order. This is the
// two-level function→component hierarchy of §4.1: synthesis tools can
// request components that execute multiple functions and ICDB finds the
// merged components (e.g. COUNTER+STORAGE ⇒ Counter).
func ComponentsForFunctions(fns ...Function) []ComponentType {
	var out []ComponentType
	for _, ct := range AllComponentTypes() {
		has := make(map[Function]bool)
		for _, f := range componentFunctions[ct] {
			has[f] = true
		}
		ok := true
		for _, f := range fns {
			if !has[f] {
				ok = false
				break
			}
		}
		if ok && len(fns) > 0 {
			out = append(out, ct)
		}
	}
	return out
}

// IsComponentType reports whether name is a predefined component type.
// Matching is case-insensitive to be forgiving in CQL commands
// ("counter" ⇒ Counter).
func IsComponentType(name string) bool {
	_, ok := NormalizeComponentType(name)
	return ok
}

// NormalizeComponentType resolves name to a predefined component type,
// case-insensitively.
func NormalizeComponentType(name string) (ComponentType, bool) {
	n := strings.ToLower(strings.TrimSpace(name))
	for _, ct := range AllComponentTypes() {
		if strings.ToLower(string(ct)) == n {
			return ct, true
		}
	}
	return "", false
}

// FunctionArity describes the I/O port shape of a function: how many data
// inputs and outputs it has. Per Appendix B §3, inputs are named I0, I1,
// ... and outputs O0, O1, ....
type FunctionArity struct {
	Inputs  int
	Outputs int
}

var functionArity = map[Function]FunctionArity{
	FuncAND: {2, 1}, FuncOR: {2, 1}, FuncNOT: {1, 1}, FuncNAND: {2, 1},
	FuncNOR: {2, 1}, FuncXOR: {2, 1}, FuncXNOR: {2, 1},
	FuncADD: {3, 2}, FuncSUB: {3, 2}, FuncMUL: {2, 1}, FuncDIV: {2, 2},
	FuncINC: {1, 1}, FuncDEC: {1, 1},
	FuncEQ: {2, 1}, FuncNEQ: {2, 1}, FuncGT: {2, 1}, FuncGE: {2, 1},
	FuncLT: {2, 1}, FuncLE: {2, 1},
	FuncMuxSCL: {2, 1}, FuncMuxSCG: {2, 1},
	FuncENCODE: {1, 1}, FuncDECODE: {1, 1},
	FuncBUF: {1, 1}, FuncClkDr: {1, 1}, FuncSchmTgr: {1, 1}, FuncTriState: {1, 1},
	FuncDELAY: {1, 1},
	FuncSHL1:  {1, 1}, FuncSHR1: {1, 1}, FuncROTL1: {1, 1}, FuncROTR1: {1, 1},
	FuncASHL1: {1, 1}, FuncASHR1: {1, 1},
	FuncSHL: {2, 1}, FuncSHR: {2, 1}, FuncROTL: {2, 1}, FuncROTR: {2, 1},
	FuncASHL: {2, 1}, FuncASHR: {2, 1},
	FuncLOAD: {1, 0}, FuncSTORE: {0, 1}, FuncSTORAGE: {1, 1},
}

// Arity returns the declared I/O arity for f. Functions without a
// registered arity report ok=false.
func Arity(f Function) (FunctionArity, bool) {
	a, ok := functionArity[f]
	return a, ok
}

// PortAlias maps a function's alias port name to its canonical I/O port
// name, e.g. Cin → I2 for ADD. Per Appendix B §3 the predefined aliases
// come from GENUS.
type PortAlias struct {
	Function Function
	Alias    string
	Port     string
}

var portAliases = []PortAlias{
	{FuncADD, "Cin", "I2"},
	{FuncADD, "Cout", "O1"},
	{FuncADD, "Sum", "O0"},
	{FuncSUB, "Bin", "I2"},
	{FuncSUB, "Bout", "O1"},
	{FuncSUB, "Diff", "O0"},
	{FuncEQ, "OEQ", "O0"},
	{FuncNEQ, "ONEQ", "O0"},
	{FuncGT, "OGT", "O0"},
	{FuncLT, "OLT", "O0"},
	{FuncGE, "OGEQ", "O0"},
	{FuncLE, "OLEQ", "O0"},
}

// Aliases returns the alias table for function f.
func Aliases(f Function) []PortAlias {
	var out []PortAlias
	for _, a := range portAliases {
		if a.Function == f {
			out = append(out, a)
		}
	}
	return out
}

// ResolveAlias maps an alias port name for function f to its canonical
// port name; if name is not an alias it is returned unchanged.
func ResolveAlias(f Function, name string) string {
	for _, a := range portAliases {
		if a.Function == f && strings.EqualFold(a.Alias, name) {
			return a.Port
		}
	}
	return name
}

// Attribute names predefined in Appendix B §3.
const (
	AttrSize          = "size"
	AttrInputLatch    = "input_latch"
	AttrOutputLatch   = "output_latch"
	AttrInputType     = "input_type"
	AttrOutputType    = "output_type"
	AttrOutputTriSt   = "output_tri_state"
	AttrType          = "type"   // counter architecture style (ripple/synchronous)
	AttrLoad          = "load"   // asynchronous parallel load option
	AttrEnable        = "enable" // count-enable option
	AttrUpOrDown      = "up_or_down"
	AttrShiftDistance = "shift_distance"
)

// PredefinedAttributes returns the attribute-name vocabulary.
func PredefinedAttributes() []string {
	return []string{
		AttrSize, AttrInputLatch, AttrOutputLatch, AttrInputType,
		AttrOutputType, AttrOutputTriSt, AttrType, AttrLoad, AttrEnable,
		AttrUpOrDown, AttrShiftDistance,
	}
}

// ClockName returns the predefined clock net name for clock index i: "clk"
// when only one clock is used (i < 0), else "clk0", "clk1", ....
func ClockName(i int) string {
	if i < 0 {
		return "clk"
	}
	return fmt.Sprintf("clk%d", i)
}

// ControlName returns the predefined control-line name Ci.
func ControlName(i int) string { return fmt.Sprintf("C%d", i) }

// InputName returns the canonical data-input port name Ii.
func InputName(i int) string { return fmt.Sprintf("I%d", i) }

// OutputName returns the canonical data-output port name Oi.
func OutputName(i int) string { return fmt.Sprintf("O%d", i) }

// FunctionSetKey produces a canonical key for a set of functions, used to
// index merged-function components: upper case, sorted, each function
// once (order-, case- and repeat-insensitive).
func FunctionSetKey(fns []Function) string {
	ss := make([]string, len(fns))
	for i, f := range fns {
		ss[i] = strings.ToUpper(string(f))
	}
	slices.Sort(ss)
	return strings.Join(slices.Compact(ss), ",")
}

// AppendFunctionSetKey appends FunctionSetKey(fns) to b. A set already in
// canonical form (upper case, strictly sorted — what every stored
// implementation row decodes to) is appended without allocating.
func AppendFunctionSetKey(b []byte, fns []Function) []byte {
	for i, f := range fns {
		if strings.ToUpper(string(f)) != string(f) || (i > 0 && fns[i-1] >= f) {
			return append(b, FunctionSetKey(fns)...)
		}
	}
	for i, f := range fns {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, f...)
	}
	return b
}
