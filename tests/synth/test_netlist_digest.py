"""Every optimized HCOR and DECT netlist, gate for gate, as recorded.

Each netlist is dumped as canonical text — per gate its kind value,
input nets, output net and initial value in gate order, then the net
names, then the input and output ports — and the dump's sha256 must
equal the digest recorded below.  A change to how netlists are stored,
levelized or optimized must leave these bytes alone; a change meant to
alter synthesis results records new digests and says why.
"""

import hashlib

from repro.synth.gates import KINDS

#: ``sha256(_dump(netlist))`` per component, in synthesis order.
HCOR_DIGESTS = {
    "hcor": "d653b12ba94aedd3001ca8ca6d6d007ccd9498ffde4372ff0935fc4a0a8202c1",
}
DECT_DIGESTS = {
    "io_i": "f1181a39a03cf88ac99974b300f152d90952bace626bd50c775153da6e2bdc28",
    "io_q": "228d112a2a6c46bf03538fe5b9e0252e119634b2890e10972cb0a6df5337edbe",
    "agc": "87ce6479ea28bc4100fdc71d14336185ecc9f48d024464ca40b4e7a85f5ace90",
    "sum": "cc32d5be3c997ff1b3ad38a1bff9b3471997abfc15ce4c8ba52e4df45cf43869",
    "disc": "c25d9e9a2559f50e78f2c6920172ec9dbac58f6c170c04165001a472f71ee4ac",
    "slicer": "91b89bc34e361b056dc4263e4c4f3133ac500af635bacf7dcd4b53bf8f13d9ae",
    "hcor_dp": "414bca1e92fdb1c5b88321428bdd7597dd12c1f54472430a7f0fa2206a9b9cb0",
    "thresh": "6f3d89c911d36823ed739f6db9da7e461a2fbc5ec7a733a599b02cbc9df6e8c0",
    "symcnt": "e3b1b1a12b26c443c582855d0b48dd7d4903cae2337b227ce4dc45b02f2b15e5",
    "crc": "aa381bb112e4d9c5278df83bb27a8e6246eed094c7815dc5bb69d19dfece1126",
    "deframe": "ba76e67924491fe0eb42260d6a13f2df864a1962e815d562b9e7d37f6edbe6c0",
    "outadr": "82509785d63ce01f691dba2dcc8e1f4dfa0c604a45c86a98d2660117df23bc64",
    "coefadr": "de3857b79c718fa06c2e9709d0d1c0a29a8a416e9cb049fc09cba4d9c00734cc",
    "drout": "25f36857ab846109b71563ba61b8cacd20d97ea4ea358699286a11566f62f74e",
    "ctlreg": "cb827e5d9a6245b1b3cb6f2a05257012f89725721593e5e91b72126b75a96726",
    "lms": "dff667f24b1582358081671d4979703794b3dc2721bef8f2f246a1ba9d1a54c9",
    "alu": "71cf631d9e9441f162287481cd8b490d89ecf184bbed0c01404e43f35270bcb1",
    "dbg": "4b34d0f8756e14c2bd974337d3bd9a463d7eb007b773204270ca20a8fba3a048",
    "fir0": "f5fa4bf58897cc5049e8e61361cd728e12a9f2ad49cf150e35330f1270286011",
    "fir1": "823a3555d1c351cd2ccf13bf56afc26ab0105adfcf3cde7ccf5158bb3d5648c9",
    "fir2": "306e4348f37ff34c983809933343b99f63eb5a429992ae18f5cd28a30cd719ad",
    "fir3": "04d76433924a82e9c98523bc1e817280982bd75da3f5a9da056bf53aafe1fa24",
    "vliw": "1aadd24718c3c24e1e4cc6603e56829138db640d44c8785b786b76ca56380530",
    "pcctrl": "aaf5576b7a03bf1af0013c28c42df1a035ee3945d334702653bb4dd59227b964",
}


def _dump(netlist):
    lines = [f"netlist {netlist.name}"]
    for code, inputs, output, init in zip(
            netlist.gate_kinds, netlist.gate_inputs, netlist.gate_outputs,
            netlist.gate_inits):
        lines.append(f"{KINDS[code].value} {' '.join(map(str, inputs))} "
                     f"-> {output} init {init}")
    for net, name in netlist.net_names.items():
        lines.append(f"name {net} {name}")
    for direction, ports in (("in", netlist.inputs),
                             ("out", netlist.outputs)):
        for port, bus in ports.items():
            lines.append(f"{direction} {port} {' '.join(map(str, bus))}")
    return "\n".join(lines) + "\n"


def _digests(synthesis):
    return {component.netlist.name:
            hashlib.sha256(_dump(component.netlist).encode()).hexdigest()
            for component in synthesis.components}


def test_hcor_netlist_digest(hcor_system_synthesis):
    _design, synthesis = hcor_system_synthesis
    assert _digests(synthesis) == HCOR_DIGESTS


def test_dect_netlist_digests(dect_synthesis):
    _design, synthesis = dect_synthesis
    assert list(_digests(synthesis).items()) == list(DECT_DIGESTS.items())
