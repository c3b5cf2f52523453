"""The 15 verify-suite reports, pinned byte for byte.

Each suite's report, as ``json.dumps(run_suite(name), sort_keys=True)``,
must hash to the sha256 recorded here, so a change to any number, flag or
label of any report fails this file.  A deliberate change to a report
updates its digest in the same commit and says why."""

import hashlib
import json

import pytest

from walshcodes.verify import SUITES, run_suite

REPORT_DIGESTS = {
    "prop-dual-first": "6531e90e29291f3b1c3cbf5488c56d057ad60474c5eeed932cce51f1090f38fe",
    "prop-dual-second": "0c895b66627a71f429e62d83e5912ecbaaa13c37fcce7e56b20174156ad43d3b",
    "hull-kernel": "b05d6fd452fb3cdeb4a7c4753f29a28ff60a99ee75f54bc9e5789dae874cd489",
    "dim-span": "e5493b242757182b28335427a13f19c1792faa087793cbb66ebf30d845829984",
    "nc-all": "3d0d30dd2b3da552194a6e69a283962bfce4a5d7948091403f7738373f3da8a8",
    "characters": "592859c9f5552e5f83e9ce84fac76ef1a5e0186bb2cf51e0be00a28d048fd2c6",
    "thm-weights": "57337a23d9ae5fb9950e92864d8ea534301d0b9c35f053b2f2bd2c942648c17a",
    "apn-ab": "627168bd56e704cb5071cb662017a92b259edbf7e3fe10973c68f78b6d6d06b3",
    "pn-bounds": "88023042013a2de424fecfd0df67d46d432575e37126c42d484aaf04f3f15ba4",
    "fixed-hull": "1e04bbcfe0306ef11279efdf16f34ac31a4a21a1acb5826d6f352a732e735083",
    "lcd": "4d34fc46cbcd2576e698efc910fc9d48379eec5770da95b6e87353a403273e6e",
    "mds": "69a772ffe15b27fdcfaebe8ad59281f85a79fb1494b1bbf58f10d937b2010587",
    "cyclotomic": "ad3b9478d5fb28319df4cdde6b3b959920126a561be37f5de9478768877405ab",
    "ding": "a19a51d892f464b62be93b7daf73226eacfd6d85408e7e5bcd1fd477bf2d93f2",
    "even-weight": "4292b63cc9661022da5b658b50bbd710681a545247c16621e01740cdc51578d3",
}


def test_every_suite_is_pinned():
    assert list(REPORT_DIGESTS) == list(SUITES)


@pytest.mark.parametrize("name", list(REPORT_DIGESTS))
def test_suite_report_is_byte_identical(name):
    report = json.dumps(run_suite(name), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_DIGESTS[name]
